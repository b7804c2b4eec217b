"""Shared helpers: deterministic 64-bit hashing and partition assignment.

The vertex id space is uint64. Urls are hashed to ids with a fixed-key
siphash (``pandas.util.hash_array`` — deterministic across processes and
runs); integer vertex spaces (tests, TPC-H-derived graphs) use the ids
directly. Partition assignment mixes the id through a splitmix64 finalizer
so that sequential id ranges spread evenly across partitions (reference
analog: SuiteSparse picks its own internal blocking, SURVEY.md §4 row
"Data partitioning" — here the partitioner is explicit and shared by every
stage so edge blocks and vertex slices stay co-partitioned).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_U64 = np.uint64


def hash_strings(arr) -> np.ndarray:
    """Deterministic uint64 hash of a string array (url -> vertex id)."""
    a = np.asarray(arr, dtype=object)
    return pd.util.hash_array(a, categorize=False).astype(np.uint64)


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (public domain algorithm, Steele et al.)."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = x ^ (x >> _U64(30))
        x = x * _U64(0xBF58476D1CE4E9B9)
        x = x ^ (x >> _U64(27))
        x = x * _U64(0x94D049BB133111EB)
        x = x ^ (x >> _U64(31))
    return x


def part_of(ids: np.ndarray, num_parts: int) -> np.ndarray:
    """Partition assignment for vertex ids: mix then mod."""
    return (mix64(ids) % _U64(num_parts)).astype(np.int32)


def pair_part(a: np.ndarray, b: np.ndarray, num_parts: int) -> np.ndarray:
    """Partition assignment for (src, dst) pair keys: the pair is folded
    into one word (``a * golden-ratio constant ^ b``, wrapping) and then
    assigned like a single id."""
    a = np.asarray(a, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return part_of(a * _U64(0x9E3779B97F4A7C15) ^ np.asarray(b, np.uint64),
                       num_parts)


def default_num_parts(target: int | None = None) -> int:
    """Partition count ~2x cores, clamped; deterministic when passed."""
    if target is not None:
        return int(target)
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return max(8, min(256, 2 * cpus))


def pairs_in_segments(values, seg_starts, seg_sizes, cap=None):
    """All intra-segment ordered pairs (i<j), vectorized per distinct
    segment size. ``cap`` (if set) skips segments larger than cap — the
    degenerate-bucket guard for LSH candidate generation; exact consumers
    (triangle counting) pass cap=None to enumerate everything."""
    import numpy as np

    a_out, b_out = [], []
    for s in np.unique(seg_sizes):
        if s < 2 or (cap is not None and s > cap):
            continue
        segs = np.flatnonzero(seg_sizes == s)
        idx = seg_starts[segs][:, None] + np.arange(s)[None, :]
        mem = values[idx]
        iu, ju = np.triu_indices(int(s), 1)
        a_out.append(mem[:, iu].ravel())
        b_out.append(mem[:, ju].ravel())
    if not a_out:
        return np.empty(0, values.dtype), np.empty(0, values.dtype)
    return np.concatenate(a_out), np.concatenate(b_out)


def coalesce_blocks(m, target: int):
    """Repartition a MATERIALIZED Dataset when its block count exploded,
    and return it with a fresh stats lineage — the loop-state hygiene of
    the kcore / mis / msf rounds.

    Ray's sort-shuffle emits ~input-many mostly-empty blocks, and
    per-round unions compound them into task-scheduling overhead in
    superstep loops (the msf fix measured 251 s → 10.7 s at sf0.1);
    gated on the actual block count so small runs skip the extra
    shuffle barrier. Ray Data also summarizes a dataset's execution
    stats by recursing into every parent without memoization, so a
    loop state co-grouped with its own derivatives (msf's relabel
    against roots derived from the same edges, mis's semi-joins) grows
    a stats tree exponential in the round count (one msf executor
    shutdown spent 98 s summarizing it), and a 100-round kcore peel hit
    Python's recursion limit walking its plan. Re-wrapping the block
    refs drops that lineage and copies no data."""
    import ray.data as rd

    if m.num_blocks() > 2 * target:
        m = m.repartition(target).materialize()
    return rd.from_arrow_refs(m.to_arrow_refs())
