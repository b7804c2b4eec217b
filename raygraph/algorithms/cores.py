"""Edge support (k-truss support counts) and k-core decomposition.

Both operate on the undirected simple graph underlying any directed
edge table: self-loops dropped, duplicates collapsed, each edge stored
in both directions. These are the classic GraphBLAS subgraph-mining
recipes (reference ecosystem: graphblas-algorithms ``k_truss`` /
``core_number``): edge support is ONE masked sparse matmul
``C(A) << A @ A`` with the plus_pair semiring, and k-core is repeated
degree-filtering to a fixpoint.

Distributed shape (the part that must survive 100 TB): every exchange
is one :func:`raygraph.kernels._cogroup`, nothing is broadcast.

* ``lower_pairs`` is the one distinct undirected pair dedup (shared
  with the masked-mxm triangle counter): per-batch local dedup
  (combiner), then ONE ``(src, dst)``-keyed co-group; ``sym_edges`` is
  its output mirrored into both directions.
* ``edge_support`` delegates to :func:`raygraph.kernels.mxm` with the
  full symmetric edge set as the structural mask, so the wedge-vs-dot
  auto-selection and its intermediate-volume bound apply unchanged.
* ``kcore`` does TWO co-groups per peel round and nothing on the
  driver but a row-count convergence check: round r groups edges by
  ``src`` (all edges of a vertex land in one bucket, so its degree is
  computed *inside* the bucket and the src-side filter is free), emits
  surviving edges plus one survivor-vertex row per kept vertex, then
  groups by ``dst`` and semi-joins edges against the survivor rows
  riding the same co-group. The simultaneous-degree rule (both endpoint
  degrees measured BEFORE this round's removals) matches the textbook
  peel and the recursive-SQL oracle round for round.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raygraph import kernels as K
from raygraph.util import coalesce_blocks

_B = 64  # shuffle buckets, same default as the triangle counter


def _distinct(hi: np.ndarray, lo: np.ndarray):
    """Distinct (hi, lo) pairs, sorted."""
    order = np.lexsort((lo, hi))
    hi, lo = hi[order], lo[order]
    new = np.ones(len(hi), bool)
    new[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
    return hi[new], lo[new]


def lower_pairs(edges, *, num_buckets: int = _B):
    """Distinct undirected pairs of any directed edge table as the strict
    lower triangle (src = max, dst = min, w = 1.0), self-loops dropped.

    Per-batch local dedup (combiner), then ONE ``(src, dst)``-keyed
    :func:`raygraph.kernels._cogroup`.
    """

    def to_lower(t: pa.Table) -> dict:
        s = K._col(t, "src", np.uint64)
        d = K._col(t, "dst", np.uint64)
        keep = s != d
        s, d = s[keep], d[keep]
        hi, lo = _distinct(np.maximum(s, d), np.minimum(s, d))
        return {"src": hi, "dst": lo}

    def dedup(g: dict) -> pa.Table:
        hi, lo = _distinct(g["src"], g["dst"])
        return pa.table({"src": hi, "dst": lo,
                         "w": np.ones(len(hi), np.float64)})

    return K._cogroup([(edges, to_lower)], dedup, key=("src", "dst"),
                      num_buckets=num_buckets)


def sym_edges(edges, *, num_buckets: int = _B):
    """Distinct symmetric, self-loop-free edge Dataset (src, dst, w=1.0):
    :func:`lower_pairs` with each pair emitted in both directions."""

    def both_dirs(t: pa.Table) -> pa.Table:
        hi, lo = K._col(t, "src"), K._col(t, "dst")
        return pa.table({"src": np.concatenate([hi, lo]),
                         "dst": np.concatenate([lo, hi]),
                         "w": np.ones(2 * len(hi), np.float64)})

    return lower_pairs(edges, num_buckets=num_buckets).map_batches(
        both_dirs, batch_format="pyarrow")


def edge_support(edges, *, num_buckets: int = _B):
    """Per-edge triangle support |N(u) ∩ N(v)| of the underlying simple
    undirected graph — the k-truss building block.

    The recipe is literally ``C(A) << A.mxm(A)`` on the symmetric
    binarized adjacency (plus_pair ≡ plus_times at w=1.0), upper
    triangle reported: one masked matmul, auto wedge/dot mode.
    Returns (src, dst, support) for edges with support >= 1; edges in
    no triangle are structural zeros, exactly as in the masked-mxm
    output.
    """
    sym = sym_edges(edges, num_buckets=num_buckets).materialize()
    prod = K.mxm(sym, sym, "plus_times", mask=sym)

    def upper(t: pa.Table) -> pa.Table:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        w = np.asarray(t["w"].to_numpy(zero_copy_only=False), np.float64)
        keep = s < d
        return pa.table({
            "src": s[keep].astype(np.int64),
            "dst": d[keep].astype(np.int64),
            "support": np.rint(w[keep]).astype(np.int64),
        })

    return K._ds(prod).map_batches(upper, batch_format="pyarrow")


def kcore(edges, k: int, *, num_buckets: int = _B, max_rounds: int = 64):
    """Vertices of the k-core: the maximal subgraph in which every
    vertex has degree >= k (undirected simple graph).

    Peels with the simultaneous rule — each round drops every edge
    with either endpoint's *start-of-round* degree < k — until the
    edge count is stable. Two grouped exchanges per round, driver does
    only the O(1) convergence count. Returns a (v:int64) Dataset,
    empty when the k-core is empty; raises RuntimeError when edges are
    still peeling after ``max_rounds`` rounds.
    """
    if k < 1:
        raise ValueError("kcore: k must be >= 1")

    def peel_src(g: dict) -> pa.Table:
        """All edges of each src vertex are in this bucket: compute its
        degree here, keep edges of surviving srcs, and emit one (v, v)
        survivor row per kept vertex for the dst-side semi-join."""
        s, d = g["src"], g["dst"]
        uniq, inv, cnt = np.unique(s, return_inverse=True, return_counts=True)
        keep = (cnt >= k)[inv]
        surv = uniq[cnt >= k]
        return pa.table({
            "src": np.concatenate([s[keep], surv]),
            "dst": np.concatenate([d[keep], surv]),
            "surv": np.r_[np.zeros(keep.sum(), bool), np.ones(len(surv), bool)],
        })

    def filter_dst(g: dict) -> pa.Table:
        e = ~g["surv"]
        es, ed = g["src"][e], g["dst"][e]
        ok = np.isin(ed, g["dst"][g["surv"]])
        return pa.table({"src": es[ok], "dst": ed[ok]})

    cur = sym_edges(edges, num_buckets=num_buckets).select_columns(
        ["src", "dst"]).materialize()
    n_edges = cur.count()
    rounds = 0
    while n_edges:
        if rounds == max_rounds:
            raise RuntimeError(
                f"kcore: {n_edges} edges still peeling after "
                f"max_rounds={max_rounds} rounds — raise the bound")
        peeled = K._cogroup([(cur, None)], peel_src, key="src",
                            num_buckets=num_buckets)
        cur = coalesce_blocks(
            K._cogroup([(peeled, None)], filter_dst, key="dst",
                       num_buckets=num_buckets).materialize(),
            max(4, num_buckets // 2))
        rounds += 1
        n_next = cur.count()
        if n_next == n_edges:
            break
        n_edges = n_next

    if n_edges == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({"v": pa.array([], pa.int64())}))

    def verts(t: pa.Table) -> dict:
        return {"v": np.unique(K._col(t, "src", np.uint64))}

    def uniq(g: dict) -> pa.Table:
        return pa.table({"v": np.unique(g["v"]).astype(np.int64)})

    return K._cogroup([(cur, verts)], uniq, key="v", num_buckets=num_buckets)


def ktruss(edges, k: int, *, num_buckets: int = _B, max_rounds: int = 16):
    """Edges of the k-truss: the maximal subgraph in which every edge
    participates in at least ``k - 2`` triangles (undirected simple
    graph). Classic GraphBLAS recipe (reference ecosystem:
    graphblas-algorithms ``k_truss``): repeat the masked matmul
    ``C(A) << A @ A`` (edge support) and drop edges below ``k - 2``,
    simultaneously, to a fixpoint.

    Distributed shape: each round is ONE masked mxm (wedge/dot
    auto-selection and its intermediate bound apply, kernels.py:2180)
    plus a vectorized filter; the driver sees only a per-round edge
    count for the convergence check. Peeling is monotone, so a
    converged state is stable — ``max_rounds`` mirrors the oracle's
    unroll depth; a truss still peeling after it raises RuntimeError.

    Returns the truss's upper-triangle edge table (src < dst).
    """
    kk = max(k - 2, 0)
    sym = sym_edges(edges, num_buckets=num_buckets).materialize()
    n_prev = sym.count()
    rounds = 0
    while n_prev:
        if rounds == max_rounds:
            raise RuntimeError(
                f"ktruss: {n_prev} edges still peeling after "
                f"max_rounds={max_rounds} rounds — raise the bound")
        prod = K.mxm(sym, sym, "plus_times", mask=sym)

        def keep(t: pa.Table) -> pa.Table:
            w = np.asarray(t["w"].to_numpy(zero_copy_only=False), np.float64)
            m = np.rint(w).astype(np.int64) >= kk
            return pa.table({
                "src": np.asarray(t["src"].to_numpy(zero_copy_only=False),
                                  np.uint64)[m],
                "dst": np.asarray(t["dst"].to_numpy(zero_copy_only=False),
                                  np.uint64)[m],
                "w": np.ones(int(m.sum()), np.float64),
            })

        sym = K._ds(prod).map_batches(keep,
                                      batch_format="pyarrow").materialize()
        n = sym.count()
        rounds += 1
        if n == n_prev:
            break
        n_prev = n

    def upper(t: pa.Table) -> pa.Table:
        s = np.asarray(t["src"].to_numpy(zero_copy_only=False), np.uint64)
        d = np.asarray(t["dst"].to_numpy(zero_copy_only=False), np.uint64)
        m = s < d
        return pa.table({"src": s[m].astype(np.int64),
                         "dst": d[m].astype(np.int64)})

    return K._ds(sym).map_batches(upper, batch_format="pyarrow")
