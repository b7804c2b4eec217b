"""Minimum spanning forest — distributed Borůvka.

Classic GraphBLAS-ecosystem recipe (LAGraph ``LAGraph_msf``; the
reference's operator set expresses it as iterated per-row min-reduce +
extract, reference core/matrix.py reduce_rowwise / select): every round
each component selects its minimum incident cross edge under the strict
total order ``(w, u, v)`` — the lexicographic tie-break makes weights
effectively distinct, so the forest is unique and equal to Kruskal's
under the same order (pinned by the chained-Borůvka DuckDB oracle and a
pytest Kruskal cross-check).

Distributed shape (per round, the driver sees only row counts; every
exchange is one :func:`raygraph.kernels._cogroup`):

1. **per-component min edge** — both orientations of every live edge are
   keyed by their endpoint's component id; a per-batch lexsort combiner
   keeps ONE candidate per component per batch, so the co-group carries
   ≤ P rows per component no matter how hot a hub component is; the
   final argmin happens inside the bucket.
2. **component merge** — the selected edges form a pseudo-forest over
   component ids in which each merged group contains exactly one
   2-cycle (its globally-min edge is picked from both sides). The
   2-cycle is broken toward the smaller id and parent pointers are
   resolved by pointer jumping: ``ceil(log2(#live comps)) + 1``
   self-co-groups, no driver-side union-find, no broadcast.
3. **edge relabel** — live edges carry their endpoint COMPONENT ids, so
   the relabel joins against the component-level root map (which
   shrinks geometrically), not the vertex table; intra-component edges
   are dropped the moment their endpoints merge.

Rounds are O(log V); total exchange volume O(E log V) worst case with
the live edge set shrinking every round — the standard parallel-Borůvka
bound, safe at 100 TB because nothing is ever broadcast or gathered.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from raygraph import kernels as K
from raygraph.util import coalesce_blocks

_B = 64
_COLS = ("key", "a", "b", "w", "o")


def _rows(key, a, b, w, o) -> pa.Table:
    return pa.table({"key": np.asarray(key, np.uint64),
                     "a": np.asarray(a, np.uint64),
                     "b": np.asarray(b, np.uint64),
                     "w": np.asarray(w, np.float64),
                     "o": np.asarray(o, np.uint64)})


def _map_rows(t: pa.Table) -> dict:
    """A ``key -> o`` map side (parent or root map), padded to the
    edge-row columns so it co-groups with edge rows."""
    key = K._col(t, "key", np.uint64)
    z = np.zeros(len(key), np.uint64)
    return {"key": key, "a": z, "b": z, "w": np.zeros(len(key)),
            "o": K._col(t, "o", np.uint64)}


def _lookup(g: dict, is_map: np.ndarray, what: str) -> np.ndarray:
    """``key -> o`` lookup inside one co-group bucket: the ``is_map``
    rows are the map, and each other row's ``key`` is looked up in it
    (in row order); a key missing from the map raises."""
    order = np.argsort(g["key"][is_map])
    mk, mo = g["key"][is_map][order], g["o"][is_map][order]
    key = g["key"][~is_map]
    idx = np.minimum(np.searchsorted(mk, key), max(len(mk) - 1, 0))
    if len(key) and (len(mk) == 0 or not np.array_equal(mk[idx], key)):
        raise RuntimeError(f"msf: {what} map lookup miss")
    return mo[idx]


def _first_per_key(c, u, v, w, o):
    """argmin per component id ``c`` under the (w, u, v) total order."""
    order = np.lexsort((v, u, w, c))
    c, u, v, w, o = (x[order] for x in (c, u, v, w, o))
    first = np.ones(len(c), bool)
    first[1:] = c[1:] != c[:-1]
    return c[first], u[first], v[first], w[first], o[first]


def _min_per_pair(u, v, w):
    """Distinct (u, v) pairs, each with its minimum weight."""
    order = np.lexsort((w, v, u))
    u, v, w = u[order], v[order], w[order]
    first = np.ones(len(u), bool)
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    return u[first], v[first], w[first]


def canonical_weighted_edges(edges, *, num_buckets: int = _B):
    """Distinct undirected weighted pairs (u < v, w = min over the two
    directed orientations), self-loops dropped — per-batch combiner
    then ONE ``(u, v)``-keyed :func:`raygraph.kernels._cogroup`.

    Output rows are relabel-ready: key = cu = u, o = cv = v.
    """

    def local(t: pa.Table) -> dict:
        s = K._col(t, "src", np.uint64)
        d = K._col(t, "dst", np.uint64)
        keep = s != d
        u, v, w = _min_per_pair(np.minimum(s, d)[keep], np.maximum(s, d)[keep],
                                K._col(t, "w", np.float64)[keep])
        return {"a": u, "b": v, "w": w}

    def dedup(g: dict) -> pa.Table:
        a, b, w = _min_per_pair(g["a"], g["b"], g["w"])
        return _rows(a, a, b, w, b)

    return K._cogroup([(edges, local)], dedup, key=("a", "b"),
                      num_buckets=num_buckets)


def _resolve_roots(P, *, nb: int, n_comps: int):
    """2-cycle break + pointer jumping over the parent map ``P``
    (rows key=c, o=parent). Returns the root map (key=c, o=root)."""

    def scatter(t: pa.Table) -> dict:
        # each row asks for its parent's parent (keyed by the parent) and
        # answers for itself (keyed by itself)
        c, p = K._col(t, "key", np.uint64), K._col(t, "o", np.uint64)
        return {"key": np.concatenate([p, c]), "c": np.concatenate([c, c]),
                "o": np.concatenate([p, p]),
                "ask": np.arange(2 * len(c)) < len(c)}

    def make_combine(break_cycles: bool):
        def combine(g: dict) -> pa.Table:
            ask = g["ask"]
            pp = _lookup(g, ~ask, "parent")
            c, p = g["c"][ask], g["key"][ask]
            if break_cycles:
                pp = np.where(pp == c, np.minimum(c, p), pp)
            return pa.table({"key": c, "o": pp})
        return combine

    jumps = max(1, math.ceil(math.log2(max(2, n_comps)))) + 1
    for i in range(jumps):
        P = coalesce_blocks(
            K._cogroup([(P, scatter)], make_combine(i == 0), key="key",
                       num_buckets=nb).materialize(),
            max(4, nb // 2))
    return P


def minimum_spanning_forest(edges, *, num_buckets: int = _B,
                            max_rounds: int = 48):
    """MSF edge Dataset (columns u, v, w — uint64/uint64/float64,
    u < v) of the undirected simple graph underlying the weighted
    directed edge table ``edges`` (columns src, dst, w). Raises
    RuntimeError when edges are still live after ``max_rounds``
    Borůvka rounds."""
    nb = num_buckets
    rp = max(4, nb // 2)
    live = coalesce_blocks(
        canonical_weighted_edges(edges, num_buckets=nb).materialize(), rp)
    forest_parts: list = []

    def incident(t: pa.Table) -> dict:
        key, a, b, w, o = (K._col(t, n) for n in _COLS)   # key=cu, o=cv
        c, u, v, ww, oc = _first_per_key(
            np.concatenate([key, o]), np.concatenate([a, a]),
            np.concatenate([b, b]), np.concatenate([w, w]),
            np.concatenate([o, key]))
        return {"key": c, "a": u, "b": v, "w": ww, "o": oc}

    def pick(g: dict) -> pa.Table:
        return _rows(*_first_per_key(*(g[n] for n in _COLS)))

    def lift_pass2(g: dict) -> pa.Table:
        e = g["side"] == 0                                  # key=cu, o=cv
        ncu = _lookup(g, ~e, "root")
        # re-key by the OTHER endpoint's old component for pass 2
        return _rows(g["o"][e], g["a"][e], g["b"][e], g["w"][e], ncu)

    def finish(g: dict) -> pa.Table:
        e = g["side"] == 0                                  # key=cv, o=cu'
        ncv = _lookup(g, ~e, "root")
        keep = g["o"][e] != ncv
        return _rows(g["o"][e][keep], g["a"][e][keep], g["b"][e][keep],
                     g["w"][e][keep], ncv[keep])

    n_live = live.count()
    rounds = 0
    while n_live:
        if rounds == max_rounds:
            raise RuntimeError(
                f"msf: {n_live} edges still live after "
                f"max_rounds={max_rounds} Borůvka rounds — raise the bound")
        # --- 1. per-component min cross edge -------------------------
        sel = coalesce_blocks(
            K._cogroup([(live, incident)], pick, key="key",
                       num_buckets=nb).materialize(), rp)
        forest_parts.append(sel)

        # --- 2. component merge: parent map -> pointer jumping --------
        # sel rows: key = c, o = other endpoint's component = parent
        roots = _resolve_roots(sel, nb=nb, n_comps=sel.count())

        # --- 3. relabel live edges against the component root map ----
        half = K._cogroup([(live, None), (roots, _map_rows)], lift_pass2,
                          key="key", num_buckets=nb)
        live = coalesce_blocks(
            K._cogroup([(half, None), (roots, _map_rows)], finish,
                       key="key", num_buckets=nb).materialize(), rp)
        rounds += 1
        n_live = live.count()

    if not forest_parts:
        return None

    # --- final global dedup (an edge can be selected from both sides
    # in the same round) — ONE (u, v)-keyed co-group ------------------
    out = forest_parts[0]
    for p in forest_parts[1:]:
        out = out.union(p)

    def uniq(g: dict) -> pa.Table:
        u, v, w = _min_per_pair(g["a"], g["b"], g["w"])
        return pa.table({"u": u, "v": v, "w": w})

    return K._cogroup([(out.select_columns(["a", "b", "w"]), None)], uniq,
                      key=("a", "b"), num_buckets=nb)
