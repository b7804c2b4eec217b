"""Triangle counting — the masked-matmul recipe ``L.mxm(L, mask=L)``.

Reference semantics (SURVEY.md §7.1 step 6, FIXTURES.md §3d): with
L = tril(A, -1) of the symmetric binarized adjacency, the count is
``((L @ L) * L).reduce_scalar(plus)``. Distributed shape: three
``fused.wave``s over the graph's CSR block refs. Each partition first
reads its (ids, deg) from its block. Orient then keeps each undirected
edge once, from its lower-(degree, id) endpoint (degree-based
orientation bounds every oriented out-degree by ~sqrt(m), which tames
power-law hubs — the skew handling for this kernel), and enumerates the
wedges (a, b) around each middle vertex from that local oriented
adjacency. An oriented edge u→v already lives in u's partition, so edges
never move: only the locally combined wedge rows travel, to the
partition owning a, where close semi-joins them against that
partition's oriented edges. The masked mxm's ⊕=plus is the final sum of
the per-partition partials.
"""

from __future__ import annotations

import numpy as np

from raygraph.fused import _gather, _route, fetch, wave
from raygraph.util import pairs_in_segments


def triangle_count_mxm(edges) -> int:
    """Triangle count via the GENERIC masked-matmul kernel — literally the
    reference recipe ``C(L) << L.mxm(L); C.reduce_scalar(plus)``
    (reference core/matrix.py:2206 + core/mask.py:131, SURVEY.md §7.1
    step 6) on kernels.mxm(mask=L): the unmasked product is never
    materialized; wedge partials and mask edges ride one (i,j)-bucketed
    shuffle. Input is any raw directed edge table (src, dst, w); it is
    symmetrized, binarized, and de-self-looped here, and L = strict
    lower triangle (dst < src). The degree-oriented CSR path below
    (``triangle_count``) is the skew-optimized production variant —
    both are cross-checked in tests/test_algorithms.py."""
    from raygraph import kernels as K
    from raygraph.algorithms.cores import lower_pairs

    # distinct-pair set, consumed three times (A, B, mask)
    tril = lower_pairs(edges).materialize()
    masked = K.mxm(tril, tril, "plus_times", mask=tril)
    total = K.reduce_scalar(masked, "plus", col="w")
    return int(total) if total is not None else 0


def _ids_deg(row):
    """A partition's sorted vertex ids and degrees, from its CSR block row."""
    if row is None:
        return np.empty(0, np.uint64), np.empty(0, np.float64)
    return tuple(np.asarray(row[c][0].values) for c in ("ids", "deg"))


def _orient(row, P, *ids_deg):
    """A partition's oriented edges (u, v) as its local result, and its
    wedges (a, b, count), combined per (a, b), sent to a's partition.
    ``ids_deg[q]`` is partition q's ``_ids_deg``."""
    if row is None:
        return None, None
    c = {n: np.asarray(row[n][0].values) for n in
         ("ids", "deg", "src_pos", "indptr", "dst_part", "dst_pos")}
    counts = np.diff(c["indptr"])
    u = np.repeat(c["ids"][c["src_pos"]], counts)
    du = np.repeat(c["deg"][c["src_pos"]], counts)
    dp, dq = c["dst_part"], c["dst_pos"]
    v = np.empty(len(dq), np.uint64)
    dv = np.empty(len(dq), np.float64)
    for q in np.unique(dp):
        sel = dp == q
        v[sel] = ids_deg[q][0][dq[sel]]
        dv[sel] = ids_deg[q][1][dq[sel]]
    keep = (du < dv) | ((du == dv) & (u < v))
    u, v, dv = u[keep], v[keep], dv[keep]
    # wedges around each middle u: pairs from S_u ordered by (deg, id)
    order = np.lexsort((v, dv, u))
    us, vs = u[order], v[order]
    starts = np.flatnonzero(np.r_[True, us[1:] != us[:-1]])
    wa, wb = pairs_in_segments(vs, starts, np.diff(np.r_[starts, len(us)]))
    if not len(wa):
        return (u, v), None
    # local combine: the same wedge pair can repeat across middles
    order = np.lexsort((wb, wa))
    wa, wb = wa[order], wb[order]
    st = np.flatnonzero(np.r_[True, (wa[1:] != wa[:-1]) | (wb[1:] != wb[:-1])])
    cnt = np.diff(np.r_[st, len(wa)]).astype(np.int64)
    wa, wb = wa[st], wb[st]
    return (u, v), _route(wa, (wa, wb, cnt), P)


def _close(edges, *wedges):
    """The wedge count closed by this partition's oriented edges."""
    pk = _gather(wedges)
    if edges is None or pk is None:
        return 0
    (u, v), (a, b, cnt) = edges, pk
    # sort by (a, b, edge before wedge); a wedge is closed iff the first
    # row of its (a, b) group is an edge row
    is_wedge = np.r_[np.zeros(len(u), bool), np.ones(len(a), bool)]
    order = np.lexsort((is_wedge, np.r_[v, b], np.r_[u, a]))
    ka, kb = np.r_[u, a][order], np.r_[v, b][order]
    is_wedge = is_wedge[order]
    first = np.r_[True, (ka[1:] != ka[:-1]) | (kb[1:] != kb[:-1])]
    closed = ~is_wedge[first][np.cumsum(first) - 1] & is_wedge
    return int(np.r_[np.zeros(len(u), np.int64), cnt][order][closed].sum())


def triangle_count(graph) -> int:
    """Exact triangle count of a symmetric graph (weights and self-loops
    are ignored)."""
    P = graph.num_parts
    rows = graph.block_ref_list()
    ids_deg, _ = wave(_ids_deg, [(r,) for r in rows], send=False)
    edges, wedges = wave(_orient, [(rows[p], P, *ids_deg) for p in range(P)])
    partials, _ = wave(_close, [(e,) for e in edges], wedges, send=False)
    return int(sum(fetch(partials)))
