"""Distributed Borůvka MSF vs a pure-Python Kruskal oracle."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from raygraph.algorithms.msf import (canonical_weighted_edges,
                                     minimum_spanning_forest)


def _edges(src, dst, w):
    return rd.from_arrow(pa.table({
        "src": np.asarray(src, np.uint64),
        "dst": np.asarray(dst, np.uint64),
        "w": np.asarray(w, np.float64),
    }))


def _kruskal(src, dst, w):
    """Kruskal under the same strict (w, u, v) order on the canonical
    undirected simple graph (u < v, w = min over orientations)."""
    pairs = {}
    for s, d, ww in zip(src, dst, w):
        if s == d:
            continue
        u, v = (s, d) if s < d else (d, s)
        k = (int(u), int(v))
        pairs[k] = min(pairs.get(k, float("inf")), float(ww))
    order = sorted((ww, u, v) for (u, v), ww in pairs.items())
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    out = []
    for ww, u, v in order:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            out.append((u, v, ww))
    return sorted(out)


def _run(src, dst, w):
    ds = minimum_spanning_forest(_edges(src, dst, w), num_buckets=8)
    if ds is None:
        return []
    t = ds.to_pandas().sort_values(["u", "v"]).reset_index(drop=True)
    return [(int(u), int(v), float(ww))
            for u, v, ww in zip(t.u, t.v, t.w)]


def test_msf_triangle_with_tail():
    # triangle 1-2-3 + pendant 4; heaviest triangle edge excluded
    got = _run([1, 2, 1, 3], [2, 3, 3, 4], [1.0, 2.0, 3.0, 5.0])
    assert got == [(1, 2, 1.0), (2, 3, 2.0), (3, 4, 5.0)]
    # {1,2} and {3,4} merge in round 1, the 2-3 bridge needs round 2
    chain = _edges([1, 3, 2], [2, 4, 3], [1.0, 1.0, 5.0])
    with pytest.raises(RuntimeError, match="max_rounds=1"):
        minimum_spanning_forest(chain, num_buckets=8, max_rounds=1)


def test_msf_disconnected_forest():
    got = _run([1, 2, 10, 11], [2, 3, 11, 12], [4.0, 1.0, 2.0, 3.0])
    assert got == [(1, 2, 4.0), (2, 3, 1.0), (10, 11, 2.0),
                   (11, 12, 3.0)]


def test_msf_tie_break_is_lexicographic():
    # equal weights everywhere: forest = smallest (u, v) pairs first
    got = _run([1, 1, 2, 3], [2, 3, 3, 1], [7.0, 7.0, 7.0, 7.0])
    assert got == [(1, 2, 7.0), (1, 3, 7.0)]


def test_msf_random_graphs_match_kruskal():
    rng = np.random.default_rng(7)
    for n, m in [(30, 120), (60, 200), (80, 80)]:
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        # duplicate-heavy weights to exercise the tie-break
        w = np.round(rng.integers(1, 12, m) / 2.0, 6)
        assert _run(src, dst, w) == _kruskal(src, dst, w)


def test_canonical_weighted_edges_min_over_orientations():
    ds = canonical_weighted_edges(
        _edges([5, 9, 9, 4], [9, 5, 9, 7], [3.0, 1.5, 9.9, 2.0]),
        num_buckets=4)
    t = ds.to_pandas()
    pairs = {(int(a), int(b)): float(w)
             for a, b, w in zip(t.key, t.b, t.w)}
    assert pairs == {(5, 9): 1.5, (4, 7): 2.0}  # self-loop dropped
