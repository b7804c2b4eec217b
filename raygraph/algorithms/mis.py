"""Maximal independent set — deterministic Luby rounds.

Classic GraphBLAS recipe (reference ecosystem: LAGraph
``LAGraph_MaximalIndependentSet``): each round, a vertex joins the MIS
iff its priority beats every still-alive neighbor's; winners and their
neighborhoods leave the graph, repeat to emptiness. The usual random
priorities are replaced with ``mix64(v)`` — a bijection of the vertex
id, so ties are impossible, the result is a deterministic function of
the graph, and re-runs / oracle checks reproduce it exactly.

Distributed shape (per round, no driver state but a row-count; every
exchange is one :func:`raygraph.kernels._cogroup`): the alive state is
ONE (src, dst) table — the symmetric edges plus a (v, v) row per alive
vertex (``sym_edges`` has no self-loops, so the two never collide).

1. ONE co-group on ``src`` puts each alive vertex with its alive edges;
   inside each bucket the per-vertex min-neighbor-priority is a sort +
   ``minimum.reduceat`` and winners (isolated vertices included) are
   emitted together with the removal set (winner + its neighbors, read
   off the winner's own edge rows riding the same bucket).
2. TWO semi-join co-groups drop removed vertices and any row touching
   one (by src, then by dst) — the removal rows ride the same shuffles;
   nothing is broadcast.

Luby terminates in O(log n) rounds w.h.p.; the driver checks the alive
count per round exactly like the k-core peel.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raygraph import kernels as K
from raygraph.algorithms.cores import sym_edges
from raygraph.util import coalesce_blocks, mix64

_B = 64


def _tbl(src, dst) -> pa.Table:
    return pa.table({"src": np.asarray(src, np.uint64),
                     "dst": np.asarray(dst, np.uint64)})


def maximal_independent_set(edges, *, num_buckets: int = _B,
                            max_rounds: int = 64):
    """MIS vertex Dataset (column ``v``) of the undirected simple graph
    underlying ``edges``. Deterministic: priorities are ``mix64(v)``.
    Raises RuntimeError when vertices are still alive after
    ``max_rounds`` Luby rounds."""
    # coalesce after a co-group WHEN blocks exploded (see
    # util.coalesce_blocks); gated on the actual block count
    rp = max(4, num_buckets // 2)

    def dedup_verts(g: dict) -> pa.Table:
        v = np.unique(g["src"])
        return _tbl(v, v)

    def pick_winners(g: dict) -> pa.Table:
        src, dst = g["src"], g["dst"]
        vert = src == dst
        v = np.sort(src[vert])  # reduceat below needs ascending spans
        order = np.argsort(src[~vert], kind="stable")
        esrc, edst = src[~vert][order], dst[~vert][order]
        pri = mix64(edst)
        lo = np.searchsorted(esrc, v, side="left")
        hi = np.searchsorted(esrc, v, side="right")
        has = hi > lo
        win = np.ones(len(v), bool)  # isolated vertices always win
        if has.any():
            # every edge src IS an alive vertex of this bucket, so the
            # has-vertices' spans tile the src-sorted edge array and
            # one reduceat yields all per-vertex minima
            mn = np.minimum.reduceat(pri, lo[has])
            win[has] = mix64(v[has]) < mn
        winners = v[win]
        # removal set: winners + neighbors of winners (their edge rows
        # are in this bucket because edges are keyed by src)
        nbrs = edst[np.isin(esrc, winners)]
        wset = np.unique(np.concatenate([winners, nbrs]))
        return pa.table({"v": wset, "win": np.isin(wset, winners)})

    def winners_only(t: pa.Table) -> pa.Table:
        v = K._col(t, "v", np.uint64)[K._col(t, "win", bool)]
        return pa.table({"v": v.astype(np.int64)})

    def removed_rows(t: pa.Table) -> dict:
        v = K._col(t, "v", np.uint64)
        return {"src": v, "dst": v}

    def drop(g: dict) -> pa.Table:
        """Drop alive rows (side 0) keyed by a removed vertex (side 1) and
        emit the rest with src/dst swapped: the pass keyed by src feeds
        the pass keyed by dst, which swaps them back."""
        alive = g["side"] == 0
        keep = alive & ~np.isin(g["src"], g["src"][~alive])
        return _tbl(g["dst"][keep], g["src"][keep])

    sym = sym_edges(edges, num_buckets=num_buckets).select_columns(
        ["src", "dst"]).materialize()
    verts = K._cogroup([(sym, None)], dedup_verts, key="src",
                       num_buckets=num_buckets)
    alive = coalesce_blocks(sym.union(verts).materialize(), rp)

    mis_parts: list = []
    n_alive = alive.count()
    rounds = 0
    while n_alive:
        if rounds == max_rounds:
            raise RuntimeError(
                f"mis: {n_alive} vertex and edge rows still alive after "
                f"max_rounds={max_rounds} Luby rounds — raise the bound")
        picked = coalesce_blocks(
            K._cogroup([(alive, None)], pick_winners, key="src",
                       num_buckets=num_buckets).materialize(), rp)
        mis_parts.append(picked.map_batches(winners_only,
                                            batch_format="pyarrow"))
        for _ in range(2):  # by src, then by dst
            alive = coalesce_blocks(
                K._cogroup([(alive, None), (picked, removed_rows)], drop,
                           key="src", num_buckets=num_buckets).materialize(),
                rp)
        rounds += 1
        n_alive = alive.count()

    if not mis_parts:  # no edge but self-loops: nothing alive to pick
        import ray.data as rd

        return rd.from_arrow(pa.table({"v": pa.array([], pa.int64())}))
    out = mis_parts[0]
    for p in mis_parts[1:]:
        out = out.union(p)
    return out
