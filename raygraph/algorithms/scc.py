"""Strongly connected components — distributed color-propagation SCC
(the classic coloring / forward-backward algorithm of Orzan 2004 and
Slota-Rajamanickam-Madduri 2014), fused supersteps over BOTH the graph
and its transpose block caches.

Reference-ecosystem counterpart: NetworkX ``strongly_connected_
components`` semantics — each vertex labeled with the MINIMUM vertex id
of its SCC (so labels are canonical and exactly comparable).

Algorithm (per round, on the still-unassigned subgraph):

1. **Color fixpoint**: C(v) ← min(id(v), min_{v→u} C(u)) iterated to
   fixpoint — C(v) is the minimum id FORWARD-reachable from v. Each
   sweep pulls from out-neighbors, i.e. one task wave over the
   TRANSPOSED graph's blocks (scatter over gT routes x[dst] to src).
2. **Roots**: every v with C(v) = id(v) is a root (it is the minimum of
   its own forward closure, hence the minimum of its SCC).
3. **Containment fixpoint**: propagate a flag FORWARD from each root
   simultaneously, restricted to the root's color class: v becomes
   flagged when some in-neighbor u is flagged with C(u) = C(v). For an
   edge u→v the closure gives C(u) ≤ C(v), so "any incoming flagged
   color equals mine" ≡ "MAX incoming flagged color equals mine" — one
   max.reduceat wave over the graph's own blocks per sweep.
4. **Assign**: flagged vertices v satisfy C(v)→*v and v→*C(v), so
   scc(v) = C(v); deactivate them and repeat. Every SCC whose root is
   locally minimal in its color class resolves per round — a DAG of
   singletons resolves in ONE round (all colors distinct); the worst
   case is a chain of k non-trivial SCCs (k rounds), bounded by
   ``max_rounds``.

Distributed shape (the part that must survive 100 TB): each sweep is
one scatter wave plus one reduce wave (``fused.wave``) driven to its
fixpoint by ``fused.drive``; per sweep only P booleans (changed flags)
return to the driver, per round only P ints (active counts).
Per-partition state (scc, active, color, flag) lives in the object store
as one ref per partition; the driver never holds a vertex array.
Assigned vertices send the min-neutral U64MAX (color wave) / 0 (flag
wave), so no compaction is needed — rounds shrink work, not layout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raygraph.fused import (U64MAX, _gather, _segment_scatter, block_cache,
                             check_layout, drive, wave)
from raygraph.ops import MONOID, local_combine


def _color_send(blk, state):
    _, active_p, color_p, _ = state
    return _segment_scatter(blk, np.where(active_p, color_p, U64MAX), np.minimum)


def _flag_send(blk, state):
    _, _, color_p, flag_p = state
    # flagged implies active implies color == some live id < U64MAX,
    # so color+1 never wraps; 0 is the max-neutral "no flag"
    return _segment_scatter(blk, np.where(flag_p, color_p + np.uint64(1),
                                          np.uint64(0)), np.maximum)


def _combine(packets, monoid):
    pk = _gather(packets)
    return (None, None) if pk is None else local_combine(monoid, *pk)


def _init_round(ids_q, state):
    scc_q, active_q, _c, _f = state
    color = np.where(active_q, ids_q, U64MAX)
    return (scc_q, active_q, color, np.zeros(len(ids_q), bool))


def _color_reduce(state, *packets):
    scc_q, active_q, color_q, flag_q = state
    upos, umin = _combine(packets, MONOID["min"])
    changed = False
    if upos is not None and len(upos):
        sel = active_q[upos]
        cand = np.minimum(color_q[upos[sel]], umin[sel])
        changed = bool((cand != color_q[upos[sel]]).any())
        if changed:
            color_q = color_q.copy()
            color_q[upos[sel]] = cand
    return (scc_q, active_q, color_q, flag_q), changed


def _roots(ids_q, state):
    scc_q, active_q, color_q, _f = state
    return (scc_q, active_q, color_q, active_q & (color_q == ids_q))


def _flag_reduce(state, *packets):
    scc_q, active_q, color_q, flag_q = state
    upos, umax = _combine(packets, MONOID["max"])
    changed = False
    if upos is not None and len(upos):
        hit = (active_q[upos] & ~flag_q[upos]
               & (umax == color_q[upos] + np.uint64(1)))
        changed = bool(hit.any())
        if changed:
            flag_q = flag_q.copy()
            flag_q[upos[hit]] = True
    return (scc_q, active_q, color_q, flag_q), changed


def _assign(state):
    scc_q, active_q, color_q, flag_q = state
    scc_q = np.where(flag_q, color_q, scc_q)
    active_q = active_q & ~flag_q
    return (scc_q, active_q, color_q, np.zeros(len(flag_q), bool)), \
        int(active_q.sum())


def scc_fused(g, gT, *, max_rounds: int = 64, max_sweeps: int = 4096):
    """Returns per-partition dense uint64 SCC labels (min member id) in
    ``g``'s layout. ``g`` and ``gT`` must share vertex universe,
    num_parts and layout (``fused.check_layout``)."""
    import ray

    check_layout(g, gT, "scc_fused")
    if g.n_vertices == 0:
        return []
    cacheF = block_cache(gT)  # color wave: v pulls C from out-neighbors
    cacheB = block_cache(g)   # flag wave: v pulls flags from in-neighbors
    ids_refs = [ray.put(i) for i in g.ids_slices()]
    sweeps_left = max_sweeps

    def per_part(fn, st):
        return wave(fn, [(i, s) for i, s in zip(ids_refs, st)], send=False)[0]

    def fixpoint(cache, send, reduce, st):
        nonlocal sweeps_left

        def sweep(st):
            *_, pk = wave(send, [(s,) for s in st], n_local=0, cache=cache)
            st, changed, _ = wave(reduce, [(s,) for s in st], pk, n_local=2,
                                  send=False)
            return st, changed

        st, n, changed = drive(sweep, st, itermax=sweeps_left)
        sweeps_left -= n
        if not changed or changed[-1] > 0:
            raise RuntimeError(
                f"scc_fused: color/flag fixpoint not reached within "
                f"max_sweeps={max_sweeps} — raise the bound")
        return st

    def round_(st):
        st = per_part(_init_round, st)
        st = fixpoint(cacheF, _color_send, _color_reduce, st)
        st = per_part(_roots, st)
        st = fixpoint(cacheB, _flag_send, _flag_reduce, st)
        st, n_active, _ = wave(_assign, [(s,) for s in st], n_local=2,
                               send=False)
        return st, n_active

    st = [ray.put((np.full(s, U64MAX, np.uint64), np.ones(s, bool),
                   np.full(s, U64MAX, np.uint64), np.zeros(s, bool)))
          for s in g.sizes]
    st, _, n_active = drive(round_, st, itermax=max_rounds)
    if n_active and n_active[-1] == 0:
        return [s[0] for s in ray.get(st)]
    raise RuntimeError(
        f"scc_fused: {n_active[-1] if n_active else g.n_vertices} vertices "
        f"unassigned after {max_rounds} rounds / {max_sweeps - sweeps_left} "
        "sweeps (SCC chain deeper than max_rounds — raise the bound)")


def condensation(g, label_slices, edges, *, count_edges: bool = True):
    """Condensed DAG of the strongly connected components: one row per
    distinct inter-component edge ``(cfrom, cto, n_edges)`` where
    labels come from :func:`scc_fused` (min member id — canonical).

    Scale shape: the label vector is O(V) ≪ O(E) — shipped ONCE via
    ``ray.put`` (same broadcast regime as the metrics degree lookups,
    bounded like graph.build's GRAFT_BROADCAST_VERTS_MAX path; at
    extreme V swap for a bucketed label join, same call shape). Each
    edge batch resolves both endpoints with two zero-copy searchsorted
    lookups and locally combines duplicate component pairs, so the one
    ``groupby(pair).sum`` shuffle carries per-batch distinct pairs —
    bounded by the (much smaller) condensation, not the edge stream.
    """
    import ray

    from raygraph import kernels as K

    ids = np.concatenate(g.ids_slices())
    lab = np.concatenate([np.asarray(s, np.uint64) for s in label_slices])
    o = np.argsort(ids)
    ids_ref = ray.put(ids[o])
    lab_ref = ray.put(lab[o])

    def m(t, _i=ids_ref, _l=lab_ref):
        ids_a = ray.get(_i)
        lab_a = ray.get(_l)
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        ls = lab_a[np.searchsorted(ids_a, s)]
        ld = lab_a[np.searchsorted(ids_a, d)]
        keep = ls != ld
        ls, ld = ls[keep], ld[keep]
        if len(ls) == 0:
            return pa.table({"cfrom": pa.array([], pa.int64()),
                             "cto": pa.array([], pa.int64()),
                             "n_edges": pa.array([], pa.int64())})
        order = np.lexsort((ld, ls))
        ls, ld = ls[order], ld[order]
        starts = np.flatnonzero(np.r_[True, (ls[1:] != ls[:-1])
                                      | (ld[1:] != ld[:-1])])
        cnt = np.diff(np.r_[starts, len(ls)])
        return pa.table({"cfrom": ls[starts].astype(np.int64),
                         "cto": ld[starts].astype(np.int64),
                         "n_edges": cnt.astype(np.int64)})

    agg = (K._ds(edges).map_batches(m, batch_format="pyarrow")
           .groupby(["cfrom", "cto"]).sum("n_edges"))

    def fin(t: pa.Table) -> pa.Table:
        return pa.table({"cfrom": t["cfrom"], "cto": t["cto"],
                         "n_edges": t["sum(n_edges)"].cast(pa.int64())})

    return agg.map_batches(fin, batch_format="pyarrow").sort(
        key=["cfrom", "cto"])


def bowtie(edges, *, num_parts: int = 16) -> pa.Table:
    """Bow-tie decomposition (Broder et al. 2000) of the directed
    simple graph under a deduped (src, dst, w) edge Dataset: CORE =
    largest SCC (ties → smallest label), IN = vertices reaching the
    core, OUT = vertices reached from it, OTHER = tendrils / tubes /
    disconnected. The core is strongly connected, so reach(core) =
    reach(r) for any representative r — one distributed SCC labeling
    plus ONE forward and ONE backward sparse-frontier fused BFS from
    the core's smallest member. Returns (v, cls) sorted by v."""
    from raygraph.algorithms.paths import bfs_levels
    from raygraph.graph import build_graph

    from raygraph import kernels as K

    eds = edges.materialize()
    g = build_graph(eds, num_parts=num_parts, dup_op="first", binarize=True)
    gT = build_graph(K.transpose(eds), num_parts=num_parts,
                     dup_op="first", binarize=True)
    labels = scc_fused(g, gT)
    lt = g.to_vertex_table(labels, "scc")
    v = np.asarray(lt["v"].to_numpy(zero_copy_only=False)).astype(np.uint64)
    lab = np.asarray(lt["scc"].to_numpy(zero_copy_only=False)).astype(np.uint64)
    ul, cnt = np.unique(lab, return_counts=True)
    core_lab = ul[cnt == cnt.max()].min()
    r = int(v[lab == core_lab].min())

    def reached(graph) -> np.ndarray:
        dist, _ = bfs_levels(graph, r)
        t = graph.to_vertex_table(dist, "dist")
        rv = np.asarray(t["v"].to_numpy(zero_copy_only=False)).astype(np.uint64)
        d = np.asarray(t["dist"].to_numpy(zero_copy_only=False))
        return rv[np.isfinite(d)]

    fwd, bwd = reached(g), reached(gT)
    is_core = lab == core_lab
    cls = np.where(is_core, "core",
                   np.where(np.isin(v, fwd), "out",
                            np.where(np.isin(v, bwd), "in", "other")))
    return pa.table({"v": v.astype(np.int64),
                     "cls": pa.array(cls.tolist(), pa.string())}) \
        .sort_by([("v", "ascending")])
