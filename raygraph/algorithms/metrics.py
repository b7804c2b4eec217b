"""Whole-graph structural metrics: reciprocity, transitivity, and
per-edge Jaccard similarity (link prediction on existing edges).

Reference-ecosystem counterparts: graphblas-algorithms
``overall_reciprocity``, ``transitivity`` and ``jaccard_coefficient``
(NetworkX semantics). All three are defined here on the simple graph
underlying any directed (src, dst, w) edge table: self-loops dropped,
duplicate edges collapsed; reciprocity keeps edge direction, the other
two use the undirected view.

Distributed shape (the part that must survive 100 TB):

* ``reciprocity`` is ONE :func:`raygraph.kernels._cogroup` keyed on
  the unordered pair — per-batch local dedup of directed pairs
  (combiner) first, so the shuffle carries distinct pairs, not the raw
  stream. Both directions of a pair land in the same group by
  construction, so reciprocation is decided group-locally; each group
  emits ONE partial row (n_edges, n_recip) and the driver folds
  ``num_buckets`` rows — never the edge set.
* ``transitivity`` composes two existing distributed kernels: the
  masked-mxm triangle count (wedge partials ride one bucketed
  shuffle) and a rowwise degree reduce on the symmetric edge set;
  triad counts are combined per batch so the driver folds one float
  per block.
* ``edge_jaccard`` reuses the edge-support recipe
  ``C(A) << A.mxm(A)`` (support = |N(u) ∩ N(v)| per surviving edge)
  and finishes with a BROADCAST degree lookup: the vertex-degree
  vector is O(V) ≪ O(E), ``ray.put`` once, read zero-copy inside
  every map task — no second shuffle. (At extreme V, swap the
  broadcast for a bucket join on src — noted, not needed here.)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raygraph import kernels as K
from raygraph.algorithms.cores import _distinct, sym_edges
from raygraph.algorithms.triangles import triangle_count_mxm

_B = 64


def reciprocity(edges, *, num_buckets: int = _B) -> pa.Table:
    """Overall reciprocity of the directed simple graph: the fraction
    of (deduplicated, self-loop-free) directed edges whose reverse
    edge also exists. Returns a 1-row table
    (n_edges, n_recip, reciprocity)."""

    def distinct(hi, lo, bit):
        order = np.lexsort((bit, lo, hi))
        hi, lo, bit = hi[order], lo[order], bit[order]
        new = np.ones(len(hi), bool)
        new[1:] = ((hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
                   | (bit[1:] != bit[:-1]))
        return hi[new], lo[new], bit[new]

    def to_keyed(t: pa.Table) -> dict:
        s = K._col(t, "src", np.uint64)
        d = K._col(t, "dst", np.uint64)
        keep = s != d
        s, d = s[keep], d[keep]
        # direction bit relative to the unordered pair (1: hi->lo, 2: lo->hi)
        bit = np.where(s > d, np.uint8(1), np.uint8(2))
        hi, lo, bit = distinct(np.maximum(s, d), np.minimum(s, d), bit)
        return {"hi": hi, "lo": lo, "bit": bit}

    def count(g: dict) -> pa.Table:
        hi, lo, _ = distinct(g["hi"], g["lo"], g["bit"])
        n_edges = len(hi)
        # after the directed dedup each unordered pair has 1 or 2 rows;
        # 2 rows == both directions present == 2 reciprocated edges
        n_pairs = int(((hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])).sum()) + 1
        n_recip = 2 * (n_edges - n_pairs)
        return pa.table({"n_edges": pa.array([n_edges], pa.int64()),
                         "n_recip": pa.array([n_recip], pa.int64())})

    parts = K._cogroup([(edges, to_keyed)], count, key=("hi", "lo"),
                       num_buckets=num_buckets)
    t = K.to_table(parts, sort_by=None)  # num_buckets partial rows
    ne = int(pa.compute.sum(t["n_edges"]).as_py() or 0)
    nr = int(pa.compute.sum(t["n_recip"]).as_py() or 0)
    # ratio as exact parts-per-million (integer floor division) so the
    # result is bit-identical to any integer-arithmetic oracle — float
    # rounding of small rationals (1/128, ...) ties at the 7th decimal
    return pa.table({
        "n_edges": pa.array([ne], pa.int64()),
        "n_recip": pa.array([nr], pa.int64()),
        "reciprocity_ppm": pa.array([nr * 1_000_000 // ne if ne else 0],
                                    pa.int64()),
    })


def transitivity(edges) -> pa.Table:
    """Global clustering coefficient 3·triangles / triads of the
    undirected simple graph, where triads = Σ_v C(deg_v, 2). Returns a
    1-row table (triangles, triads, transitivity)."""
    tri = int(triangle_count_mxm(edges))

    def partial(t: pa.Table) -> pa.Table:
        d = np.rint(np.asarray(t["val"].to_numpy(zero_copy_only=False),
                               np.float64)).astype(np.int64)
        return pa.table({"x": pa.array([int((d * (d - 1) // 2).sum())],
                                       pa.int64())})

    deg = K.reduce_rowwise(sym_edges(edges), "plus")
    pt = K.to_table(deg.map_batches(partial, batch_format="pyarrow"),
                    sort_by=None)
    triads = int(pa.compute.sum(pt["x"]).as_py() or 0)
    return pa.table({
        "triangles": pa.array([tri], pa.int64()),
        "triads": pa.array([triads], pa.int64()),
        "transitivity_ppm": pa.array(
            [3 * tri * 1_000_000 // triads if triads else 0], pa.int64()),
    })


def edge_jaccard(edges, *, num_buckets: int = _B):
    """Jaccard similarity J(u,v) = |N(u) ∩ N(v)| / |N(u) ∪ N(v)| for
    every EXISTING undirected edge with at least one common neighbor
    (upper triangle reported) — the link-prediction score restricted
    to the edge set, so the wedge work is exactly the masked-mxm
    edge-support recipe. |N(u) ∪ N(v)| = deg_u + deg_v - support
    (u ∉ N(u), so endpoints never sit in the intersection).

    Returns a Dataset (src, dst, support, jaccard).
    """
    import ray

    sym = sym_edges(edges, num_buckets=num_buckets).materialize()

    degt = K.to_table(K.reduce_rowwise(sym, "plus"), sort_by=None)
    ids = np.asarray(degt["v"].to_numpy(zero_copy_only=False), np.uint64)
    dg = np.rint(np.asarray(degt["val"].to_numpy(zero_copy_only=False),
                            np.float64)).astype(np.int64)
    order = np.argsort(ids)
    deg_ref = ray.put((ids[order], dg[order]))

    prod = K.mxm(sym, sym, "plus_times", mask=sym)

    def finish(t: pa.Table) -> pa.Table:
        bids, bdeg = ray.get(deg_ref)
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        w = np.asarray(t["w"].to_numpy(zero_copy_only=False), np.float64)
        keep = s < d
        s, d = s[keep], d[keep]
        sup = np.rint(w[keep]).astype(np.int64)
        du = bdeg[np.searchsorted(bids, s)]
        dv = bdeg[np.searchsorted(bids, d)]
        return pa.table({
            "src": s.astype(np.int64),
            "dst": d.astype(np.int64),
            "support": sup,
            # exact integer ppm — see reciprocity for why not round(,6)
            "jaccard_ppm": sup * 1_000_000 // (du + dv - sup),
        })

    return K._ds(prod).map_batches(finish, batch_format="pyarrow")


def local_clustering(edges, *, num_buckets: int = _B):
    """Per-vertex local clustering coefficient of the undirected simple
    graph (graphblas-algorithms/NetworkX ``clustering`` semantics):
    lcc(v) = 2·tri(v) / (deg_v·(deg_v−1)), 0 when deg_v < 2.

    tri(v) falls out of the SAME masked matmul as edge support:
    ``C(A) << A.mxm(A)`` rowwise-summed gives Σ_{u∈N(v)} |N(v)∩N(u)|
    = 2·tri(v), so the only new work over edge_support is one vector
    reduce plus ONE bucketed vector cogroup against the degree vector
    (both O(V) — never the edge set). Ratio as exact integer ppm.

    Returns a Dataset (v, deg, tri, lcc_ppm).
    """
    sym = sym_edges(edges, num_buckets=num_buckets).materialize()
    deg = K.reduce_rowwise(sym, "plus")
    tri2 = K.reduce_rowwise(K.mxm(sym, sym, "plus_times", mask=sym), "plus")

    def join(g: dict) -> pa.Table:
        (keys,), has, (vals,) = K._join_sides(g, 2)
        d = np.rint(vals[0]).astype(np.int64)   # deg ⊇ tri2 support
        t2 = np.rint(np.where(has[1], vals[1], 0.0)).astype(np.int64)
        denom = d * (d - 1)
        lcc = np.where(denom > 0,
                       t2 * 1_000_000 // np.maximum(denom, 1), 0)
        return pa.table({"v": keys.astype(np.int64), "deg": d,
                         "tri": t2 // 2, "lcc_ppm": lcc})

    cols = K._keyed_cols("v", "val", np.float64)
    return K._cogroup([(deg, cols), (tri2, cols)], join,
                      num_buckets=num_buckets)


def avg_neighbor_degree(edges, *, num_buckets: int = _B):
    """Average degree of each vertex's neighbors on the undirected
    simple graph (graphblas-algorithms ``average_neighbor_degree``):
    ONE SpMV — y = A·deg with plus_times — then one O(V) vector
    cogroup against deg. Ratio as exact integer ppm.

    Returns a Dataset (v, deg, sum_nbr_deg, avg_nbr_deg_ppm).
    """
    sym = sym_edges(edges, num_buckets=num_buckets).materialize()
    deg = K.reduce_rowwise(sym, "plus")
    snd = K.mxv(sym, deg, "plus_times")

    def join(g: dict) -> pa.Table:
        (keys,), has, (vals,) = K._join_sides(g, 2)
        d = np.rint(vals[0]).astype(np.int64)
        s = np.rint(np.where(has[1], vals[1], 0.0)).astype(np.int64)
        return pa.table({"v": keys.astype(np.int64), "deg": d,
                         "sum_nbr_deg": s,
                         "avg_nbr_deg_ppm": s * 1_000_000 // d})

    cols = K._keyed_cols("v", "val", np.float64)
    return K._cogroup([(deg, cols), (snd, cols)], join,
                      num_buckets=num_buckets)


def degree_assortativity(edges, *, num_buckets: int = _B) -> pa.Table:
    """Degree assortativity coefficient (Pearson correlation of
    endpoint degrees over the directed edge list of the undirected
    simple graph — both directions, so marginals are symmetric and
    r = (M·Σxy − (Σx)²) / (M·Σxx − (Σx)²)).

    Distributed shape: degree vector is O(V), broadcast once via
    ``ray.put`` and read zero-copy in every map task; each batch of
    the symmetric edge stream emits ONE 4-int partial row — the
    driver folds num_blocks rows, never the edges. All moments are
    exact int64; only the final division is float.

    Returns a 1-row table (m, sx, sxx, sxy, assortativity).
    """
    import ray

    sym = sym_edges(edges, num_buckets=num_buckets).materialize()
    degt = K.to_table(K.reduce_rowwise(sym, "plus"), sort_by=None)
    ids = np.asarray(degt["v"].to_numpy(zero_copy_only=False), np.uint64)
    dg = np.rint(np.asarray(degt["val"].to_numpy(zero_copy_only=False),
                            np.float64)).astype(np.int64)
    order = np.argsort(ids)
    deg_ref = ray.put((ids[order], dg[order]))

    def partial(t: pa.Table) -> pa.Table:
        bids, bdeg = ray.get(deg_ref)
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        x = bdeg[np.searchsorted(bids, s)]
        y = bdeg[np.searchsorted(bids, d)]
        return pa.table({"m": pa.array([len(x)], pa.int64()),
                         "sx": pa.array([int(x.sum())], pa.int64()),
                         "sxx": pa.array([int((x * x).sum())], pa.int64()),
                         "sxy": pa.array([int((x * y).sum())], pa.int64())})

    pt = K.to_table(K._ds(sym).map_batches(partial, batch_format="pyarrow"),
                    sort_by=None)
    m = int(pa.compute.sum(pt["m"]).as_py() or 0)
    sx = int(pa.compute.sum(pt["sx"]).as_py() or 0)
    sxx = int(pa.compute.sum(pt["sxx"]).as_py() or 0)
    sxy = int(pa.compute.sum(pt["sxy"]).as_py() or 0)
    num, den = m * sxy - sx * sx, m * sxx - sx * sx
    # float(num)/float(den) mirrors the SQL oracle's BIGINT→DOUBLE casts
    r = round(float(num) / float(den), 6) if den else 0.0
    return pa.table({
        "m": pa.array([m], pa.int64()), "sx": pa.array([sx], pa.int64()),
        "sxx": pa.array([sxx], pa.int64()),
        "sxy": pa.array([sxy], pa.int64()),
        "assortativity": pa.array([r], pa.float64()),
    })


def modularity(edges, labels: pa.Table) -> pa.Table:
    """Directed modularity (Newman-Leicht 2008) of a GIVEN partition:
    per community c over the distinct directed edge set,
    ``q_c = e_c/m - (dout_c/m)*(din_c/m)`` with m = total edges; the
    graph's modularity is ``sum(q_c)``. ``labels`` is a vertex table
    ``(v, label)`` covering every endpoint.

    Distributed shape: the label vector is O(V) — ``ray.put`` once,
    searchsorted lookup zero-copy in every map task (at extreme V swap
    for a bucket join on v, as edge_jaccard notes); each edge batch
    pre-combines to at most 3·|labels| partial rows (dout/din/e_in per
    label — combiner), ONE small ``groupby(label).sum`` merges them,
    and the driver folds only |labels| rows for the m normalization.

    Returns (label, e_in, dout, din, q) per community, q rounded 6.
    """
    import ray

    lv = np.asarray(labels["v"].to_numpy(zero_copy_only=False), np.uint64)
    ll = np.asarray(labels["label"].to_numpy(zero_copy_only=False), np.int64)
    order = np.argsort(lv)
    lab_ref = ray.put((lv[order], ll[order]))

    def partial(t: pa.Table) -> pa.Table:
        bids, blab = ray.get(lab_ref)
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        ls = blab[np.searchsorted(bids, s)]
        ld = blab[np.searchsorted(bids, d)]
        u = np.unique(np.concatenate([ls, ld]))
        dout = np.bincount(np.searchsorted(u, ls), minlength=len(u))
        din = np.bincount(np.searchsorted(u, ld), minlength=len(u))
        same = ls == ld
        ein = np.bincount(np.searchsorted(u, ls[same]), minlength=len(u))
        return pa.table({"label": u,
                         "e_in": ein.astype(np.int64),
                         "dout": dout.astype(np.int64),
                         "din": din.astype(np.int64)})

    from ray.data.aggregate import Sum

    agg = (K._ds(edges).map_batches(partial, batch_format="pyarrow")
           .groupby("label")
           .aggregate(Sum("e_in", alias_name="e_in"),
                      Sum("dout", alias_name="dout"),
                      Sum("din", alias_name="din")))
    t = K.to_table(agg, sort_by=None).sort_by([("label", "ascending")])
    ein = np.asarray(t["e_in"].to_numpy(zero_copy_only=False), np.float64)
    dout = np.asarray(t["dout"].to_numpy(zero_copy_only=False), np.float64)
    din = np.asarray(t["din"].to_numpy(zero_copy_only=False), np.float64)
    m = dout.sum()
    q = ein / m - (dout / m) * (din / m)
    return pa.table({"label": t["label"].cast(pa.int64()),
                     "e_in": t["e_in"].cast(pa.int64()),
                     "dout": t["dout"].cast(pa.int64()),
                     "din": t["din"].cast(pa.int64()),
                     "q": np.round(q, 6)})


def adamic_adar(edges, *, num_buckets: int = _B):
    """Adamic-Adar link-prediction score for every EXISTING undirected
    edge with >= 1 common neighbor: ``AA(u,v) = sum over w in
    N(u) ∩ N(v) of 1 / ln(deg_w)`` — the edge-support recipe with the
    intermediate vertex's inverse-log-degree riding as the right
    operand's edge weight: ``C(A) << A.mxm(D_invlog A)`` (masked
    plus_times mxm; common neighbors always have deg >= 2, so the log
    never vanishes on a contributing wedge).

    Distributed shape: the degree vector is O(V) — ``ray.put`` once,
    zero-copy searchsorted lookup per batch; the rescaled twin B is a
    shuffle-free map over the symmetric edge set; all wedge work is the
    ONE masked-mxm bucketed exchange edge_jaccard already uses.

    Returns a Dataset (src, dst, aa) per upper-triangle edge, round 6.
    """
    import ray

    sym = sym_edges(edges, num_buckets=num_buckets).materialize()

    degt = K.to_table(K.reduce_rowwise(sym, "plus"), sort_by=None)
    ids = np.asarray(degt["v"].to_numpy(zero_copy_only=False), np.uint64)
    dg = np.rint(np.asarray(degt["val"].to_numpy(zero_copy_only=False),
                            np.float64)).astype(np.int64)
    order = np.argsort(ids)
    inv = np.where(dg[order] > 1,
                   1.0 / np.log(np.maximum(dg[order], 2)), 0.0)
    ref = ray.put((ids[order], inv))

    def rescale(t: pa.Table) -> pa.Table:
        bids, binv = ray.get(ref)
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        return pa.table({"src": t["src"], "dst": t["dst"],
                         "w": binv[np.searchsorted(bids, s)]})

    B = K._ds(sym).map_batches(rescale, batch_format="pyarrow")
    prod = K.mxm(sym, B, "plus_times", mask=sym)

    def finish(t: pa.Table) -> pa.Table:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        w = np.asarray(t["w"].to_numpy(zero_copy_only=False), np.float64)
        keep = s < d
        return pa.table({"src": s[keep].astype(np.int64),
                         "dst": d[keep].astype(np.int64),
                         "aa": np.round(w[keep], 6)})

    return K._ds(prod).map_batches(finish, batch_format="pyarrow")


def rich_club(edges, *, ks=(1, 2, 4, 8, 16, 32),
              num_buckets: int = _B) -> pa.Table:
    """Rich-club coefficient φ(k) = 2·E_k / (N_k·(N_k−1)) of the
    undirected simple graph for each degree threshold k: N_k vertices
    with degree > k, E_k edges with BOTH endpoint degrees > k
    (Colizza et al. 2006; NetworkX ``rich_club_coefficient``,
    unnormalized).

    Distributed shape: degree vector is O(V), ``ray.put`` once and read
    zero-copy in every map task (same documented broadcast regime as
    ``edge_jaccard``/``degree_assortativity``; at extreme V swap for a
    bucket join on src). Each batch of the canonical (src<dst) edge
    stream emits a TINY (m, cnt) partial histogram of
    m = min(deg_src, deg_dst) — the driver folds bounded histograms,
    never edges. All counts exact int64; φ reported as integer ppm.

    Returns (k, n_nodes, n_edges, phi_ppm) for thresholds with
    N_k ≥ 2, ordered by k.
    """
    import ray

    sym = sym_edges(edges, num_buckets=num_buckets).materialize()
    degt = K.to_table(K.reduce_rowwise(sym, "plus"), sort_by=None)
    ids = np.asarray(degt["v"].to_numpy(zero_copy_only=False), np.uint64)
    dg = np.rint(np.asarray(degt["val"].to_numpy(zero_copy_only=False),
                            np.float64)).astype(np.int64)
    order = np.argsort(ids)
    deg_ref = ray.put((ids[order], dg[order]))

    def partial(t: pa.Table) -> pa.Table:
        bids, bdeg = ray.get(deg_ref)
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        keep = s < d  # each undirected edge once
        s, d = s[keep], d[keep]
        m = np.minimum(bdeg[np.searchsorted(bids, s)],
                       bdeg[np.searchsorted(bids, d)])
        u, c = np.unique(m, return_counts=True)
        return pa.table({"m": u.astype(np.int64),
                         "cnt": c.astype(np.int64)})

    mt = K.to_table(
        K._ds(sym).map_batches(partial, batch_format="pyarrow"),
        sort_by=None)
    ms = np.asarray(mt["m"].to_numpy(zero_copy_only=False), np.int64)
    mc = np.asarray(mt["cnt"].to_numpy(zero_copy_only=False), np.int64)

    rows = []
    for k in ks:
        n_k = int((dg > k).sum())
        if n_k < 2:
            continue
        e_k = int(mc[ms > k].sum())
        rows.append((int(k), n_k, e_k,
                     2 * e_k * 1_000_000 // (n_k * (n_k - 1))))
    ka, na, ea, pa_ = zip(*rows) if rows else ((), (), (), ())
    return pa.table({"k": pa.array(ka, pa.int64()),
                     "n_nodes": pa.array(na, pa.int64()),
                     "n_edges": pa.array(ea, pa.int64()),
                     "phi_ppm": pa.array(pa_, pa.int64())})


def s_metric(edges, *, num_buckets: int = _B) -> pa.Table:
    """s-metric Σ deg(u)·deg(v) over the undirected simple graph's
    edges (Li-Alderson-Doyle-Willinger "towards a theory of scale-free
    graphs"; graphblas-algorithms/networkx ``s_metric``, each
    undirected edge counted once). Exact int64.

    Distributed shape: identical to degree_assortativity — degree
    vector broadcast once, each batch of the canonical (src<dst) edge
    stream emits ONE partial int row, the driver folds partials."""
    import ray

    sym = sym_edges(edges, num_buckets=num_buckets).materialize()
    degt = K.to_table(K.reduce_rowwise(sym, "plus"), sort_by=None)
    ids = np.asarray(degt["v"].to_numpy(zero_copy_only=False), np.uint64)
    dg = np.rint(np.asarray(degt["val"].to_numpy(zero_copy_only=False),
                            np.float64)).astype(np.int64)
    order = np.argsort(ids)
    deg_ref = ray.put((ids[order], dg[order]))

    def partial(t: pa.Table) -> pa.Table:
        bids, bdeg = ray.get(deg_ref)
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        keep = s < d
        s, d = s[keep], d[keep]
        prod = bdeg[np.searchsorted(bids, s)] * bdeg[np.searchsorted(bids, d)]
        return pa.table({"m": pa.array([len(s)], pa.int64()),
                         "s": pa.array([int(prod.sum())], pa.int64())})

    pt = K.to_table(K._ds(sym).map_batches(partial, batch_format="pyarrow"),
                    sort_by=None)
    return pa.table({
        "n_edges": pa.array([int(np.asarray(
            pt["m"].to_numpy(zero_copy_only=False)).sum())], pa.int64()),
        "s_metric": pa.array([int(np.asarray(
            pt["s"].to_numpy(zero_copy_only=False)).sum())], pa.int64())})


def bipartite_project(ds, *, key_col: str, val_col: str,
                      num_buckets: int = _B, cap: int = 100_000):
    """Bipartite projection (the co-purchase / co-occurrence graph):
    given a two-mode table (key, val), connect every pair of vals that
    share a key, weighted by the number of DISTINCT shared keys.
    Returns Dataset (a, b, n_shared) with a < b.

    Distributed shape: per-batch local (key, val) dedup (combiner), ONE
    co-group on ``key`` so a key's vals co-locate; in-bucket lexsort
    segments per key and vectorized i<j pair generation
    (``pairs_in_segments``); a SECOND co-group on the ``(a, b)`` pair
    counts each pair with a lexsort + segment lengths. A key shared by
    h vals emits h(h-1)/2 pairs, so a key with more than ``cap``
    distinct vals raises ValueError instead of flooding the second
    exchange — ``cap`` is sized far above this data's fan-out.
    """
    from raygraph.util import pairs_in_segments

    def tag(t: pa.Table) -> dict:
        k = K._col(t, key_col, np.int64).astype(np.uint64)
        v = K._col(t, val_col, np.int64).astype(np.uint64)
        k, v = _distinct(k, v)
        return {"k": k, "v": v}

    def pairs(g: dict) -> pa.Table:
        k, v = _distinct(g["k"], g["v"])
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        sizes = np.diff(np.r_[starts, len(k)])
        i = int(np.argmax(sizes))
        if sizes[i] > cap:
            raise ValueError(
                f"bipartite_project: key {int(k[starts[i]])} is shared by "
                f"{int(sizes[i])} vals, over cap={cap} — raise cap")
        # vals are sorted within each key, so every pair has a < b
        a, b = pairs_in_segments(v, starts, sizes)
        return pa.table({"a": a, "b": b})

    def count(g: dict) -> pa.Table:
        a, b = g["a"], g["b"]
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        starts = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
        n = np.diff(np.r_[starts, len(a)])
        return pa.table({"a": a[starts].astype(np.int64),
                         "b": b[starts].astype(np.int64),
                         "n_shared": n.astype(np.int64)})

    pair_rows = K._cogroup([(ds, tag)], pairs, key="k", num_buckets=num_buckets)
    return K._cogroup([(pair_rows, None)], count, key=("a", "b"),
                      num_buckets=num_buckets)
