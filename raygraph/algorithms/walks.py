"""Deterministic random-walk sampling (DeepWalk / node2vec p=q=1 prep).

A walk step from vertex ``cur`` at step ``t`` moves to the out-neighbor
``u`` minimizing ``mix64((cur * K1) ^ (t * K2) ^ u)`` — a splitmix64-keyed
choice that is uniform-ish over neighbors, fully deterministic, and
collision-free (for fixed ``(cur, t)`` the pre-mix input is a bijection
of ``u``, and mix64 is itself a bijection, so argmin ties cannot occur).
Determinism is what makes the op oracle-checkable and makes re-runs of a
100 TB sampling job reproducible partition by partition.

Distributed shape: the frontier (one row per live walk) cogroups with
the distinct edge set through ONE :func:`raygraph.kernels._cogroup` per
step, keyed on ``src`` — each bucket sees every out-edge of its vertices
plus the walks currently standing on them, so the per-walk argmin is
computed inside the bucket with searchsorted ranges (no driver loop, no
broadcast). Walks at dead ends simply emit no next row. Edges are
re-bucketed per step — for few-step sampling (the common training-data
case) that is steps × one-shuffle; a long-walk production variant would
pin per-bucket CSR blocks as object refs like the fused BSP engine
(fused.py) and route only frontiers.

Reference analog: the reference exposes no walk sampler; semantics are
the standard DeepWalk corpus-generation step (Perozzi et al. 2014)
restated as a deterministic hash choice.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raygraph import kernels as K
from raygraph.util import mix64

_B = 64
_K1 = np.uint64(0x9E3779B97F4A7C15)
_K2 = np.uint64(0xD1B54A32D192ED03)
_U64 = np.uint64


def _step_key(cur: np.ndarray, step: int, nbr: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        salt = _U64(step) * _K2
        return mix64((cur * _K1) ^ salt ^ nbr)


def random_walks(edges, *, start_pred=None, starts=None, steps: int = 4,
                 num_buckets: int = _B):
    """Walk ``steps`` hash-driven steps from each start vertex over the
    distinct directed edge set. Returns a Dataset of
    ``(start, step, v)`` — step 0 is the start itself; a walk that
    reaches a vertex with no out-edges stops emitting.

    ``start_pred`` is a vectorized predicate over a uint64 id array
    (evaluated inside batches — the start set never touches the driver);
    ``starts`` an explicit id iterable for small seed sets.
    """
    if (start_pred is None) == (starts is None):
        raise ValueError("random_walks: exactly one of start_pred/starts")
    if starts is not None:
        seed_arr = np.unique(np.asarray(list(starts), np.uint64))
        start_pred = lambda ids: np.isin(ids, seed_arr)  # noqa: E731

    def to_ebin(t: pa.Table) -> pa.Table:
        s = K._col(t, "src", np.uint64)
        d = K._col(t, "dst", np.uint64)
        order = np.lexsort((d, s))
        s, d = s[order], d[order]
        new = np.ones(len(s), bool)
        new[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
        # edge rows: key = src, a = dst
        return pa.table({"key": s[new], "a": d[new]})

    ebin = K._ds(edges).map_batches(to_ebin, batch_format="pyarrow").materialize()

    def to_starts(t: pa.Table) -> dict:
        v = np.unique(np.concatenate([K._col(t, "src", np.uint64),
                                      K._col(t, "dst", np.uint64)]))
        v = v[np.asarray(start_pred(v), bool)]
        return {"key": v}

    def dedup_starts(g: dict) -> pa.Table:
        # walk rows: key = cur, a = start
        v = np.unique(g["key"])
        return pa.table({"key": v, "a": v})

    # coalesce after every co-group: the frontier's real content is one
    # row per live walk, but Ray's sort-shuffle emits ~input-many
    # mostly-empty blocks — left alone, each step unions the previous
    # step's empties and task-scheduling overhead (not data) dominates
    _RP = 16

    frontier = K._cogroup([(edges, to_starts)], dedup_starts, key="key",
                          num_buckets=num_buckets).repartition(_RP)

    def out_rows(start: np.ndarray, step: int, v: np.ndarray) -> pa.Table:
        return pa.table({"start": start.astype(np.int64),
                         "step": np.full(len(start), step, np.int64),
                         "v": v.astype(np.int64)})

    def emit0(t: pa.Table) -> pa.Table:
        a = K._col(t, "a", np.uint64)
        return out_rows(a, 0, a)

    outputs = [frontier.map_batches(emit0, batch_format="pyarrow")]

    for t_step in range(1, steps + 1):
        def advance(g: dict, _t=t_step) -> pa.Table:
            edge = g["side"] == 0
            esrc, edst = g["key"][edge], g["a"][edge]
            wcur, wstart = g["key"][~edge], g["a"][~edge]
            order = np.argsort(esrc, kind="stable")
            esrc, edst = esrc[order], edst[order]
            lo = np.searchsorted(esrc, wcur, side="left")
            cnt = np.searchsorted(esrc, wcur, side="right") - lo
            live = cnt > 0
            wcur, wstart, lo, cnt = wcur[live], wstart[live], lo[live], cnt[live]
            rep = np.repeat(np.arange(len(wcur)), cnt)
            idx = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(len(rep))
            h = _step_key(wcur[rep], _t, edst[idx])
            # per-walk argmin via (rep, h) lexsort + first-of-group
            o = np.lexsort((h, rep))
            first = np.ones(len(o), bool)
            first[1:] = rep[o][1:] != rep[o][:-1]
            return pa.table({"key": edst[idx][o][first],
                             "a": wstart[rep][o][first]})

        frontier = K._cogroup([(ebin, None), (frontier, None)], advance,
                              key="key", num_buckets=num_buckets
                              ).repartition(_RP).materialize()

        def emit(t: pa.Table, _t=t_step) -> pa.Table:
            return out_rows(K._col(t, "a", np.uint64), _t,
                            K._col(t, "key", np.uint64))

        outputs.append(frontier.map_batches(emit, batch_format="pyarrow"))

    out = outputs[0]
    for o in outputs[1:]:
        out = out.union(o)
    return out


def walk_skipgram_pairs(edges, *, start_pred=None, starts=None,
                        steps: int = 8, window: int = 2,
                        num_buckets: int = _B):
    """DeepWalk corpus → skip-gram pairs: generate deterministic walks,
    then count ordered vertex pairs ``(walk[i], walk[i+d])`` for
    ``1 <= d <= window`` across all walks — the full embedding-training
    prep composition (Perozzi et al. 2014) in two stages.

    Pair generation co-groups the walk rows by start (walks are short —
    ``steps+1`` rows — so a walk always fits a bucket), sorts by
    (start, step), and emits index-shifted pairs within each walk;
    counting is the same combiner-first ``groupby(pair).sum`` as the
    text-side skip-gram op."""
    wk = random_walks(edges, start_pred=start_pred, starts=starts,
                      steps=steps, num_buckets=num_buckets)

    def pairs(g: dict) -> pa.Table:
        o = np.lexsort((g["step"], g["start"]))
        st, v = g["start"][o], g["v"][o]
        # steps are consecutive from 0 while a walk lives, so an index
        # shift of d within one start IS a step shift of d
        outs_a, outs_b = [v[:0]], [v[:0]]
        for d in range(1, window + 1):
            same = st[:-d] == st[d:]
            outs_a.append(v[:-d][same])
            outs_b.append(v[d:][same])
        t = pa.table({"a": np.concatenate(outs_a),
                      "b": np.concatenate(outs_b)}).group_by(["a", "b"]).aggregate(
            [([], "count_all")])
        return pa.table({"a": t["a"], "b": t["b"],
                         "n": t["count_all"].cast(pa.int64())})

    # coalesce the unioned per-step outputs before grouping (see the
    # block-explosion note in random_walks)
    agg = (K._cogroup([(wk.repartition(16), None)], pairs, key="start",
                      num_buckets=num_buckets)
           .groupby(["a", "b"]).sum("n"))

    def fin(t: pa.Table) -> pa.Table:
        return pa.table({"a": t["a"], "b": t["b"],
                         "n": t["sum(n)"].cast(pa.int64())})

    return agg.map_batches(fin, batch_format="pyarrow").sort(key=["a", "b"])
