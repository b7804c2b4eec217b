"""Per-iteration Parquet checkpoints with lineage + resume (north_rule).

Layout (FIXTURES.md §2):

    <ckpt_dir>/graph/           CSR blocks, written once at build
    <ckpt_dir>/graph/meta.json
    <ckpt_dir>/iter=K/state.parquet   per-partition state vectors (one row/part)
    <ckpt_dir>/iter=K/_lineage.json   {iter, residual, edges_traversed, wall_s,
                                       input_fingerprint, partitions, extra...}
    <ckpt_dir>/iter=K/_SUCCESS        atomic completion marker

Resume = find max complete K (marker present), read the state rows,
continue the loop (reference analog: serialize/deserialize of single
objects, graphblas/core/ss/matrix.py:4057,4102 — but made job-level and
partition-parallel here). Writes go to a temp name then rename so a
killed run never leaves a half-written checkpoint that parses.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _content_checksum(graph) -> int:
    """Order-independent uint64 checksum over every (src, dst, part, w)
    edge and every vertex id — one distributed pass over the CSR blocks
    (wrapping sums commute, so block/batch order doesn't matter)."""
    C1 = np.uint64(0x9E3779B97F4A7C15)
    C2 = np.uint64(0xC2B2AE3D27D4EB4F)
    C3 = np.uint64(0x165667B19E3779F9)

    def chk(t: pa.Table) -> pa.Table:
        from raygraph.util import mix64

        parts = t["part"].to_numpy(zero_copy_only=False)
        acc = np.uint64(0)
        with np.errstate(over="ignore"):
            for i in range(t.num_rows):
                p64 = np.uint64(int(parts[i]))
                ids = np.asarray(t["ids"][i].values, np.uint64)
                sp = np.asarray(t["src_pos"][i].values, np.int64)
                indptr = np.asarray(t["indptr"][i].values, np.int64)
                dq = np.asarray(t["dst_pos"][i].values, np.int64).astype(np.uint64)
                dp = np.asarray(t["dst_part"][i].values, np.int32).astype(np.uint64)
                w = np.asarray(t["w"][i].values, np.float64)
                acc += np.add.reduce(mix64(ids ^ (p64 * C3 + C1)), dtype=np.uint64)
                if len(w):
                    sv = np.repeat(sp.astype(np.uint64), np.diff(indptr))
                    eh = mix64(sv * C1 ^ dq * C2 ^ (dp + np.uint64(1))
                               ^ w.view(np.uint64) ^ p64)
                    acc += np.add.reduce(eh, dtype=np.uint64)
        return pa.table({"h": pa.array([int(acc)], pa.uint64())})

    rows = graph.blocks.map_batches(chk, batch_format="pyarrow").take_all()
    total = np.uint64(0)
    with np.errstate(over="ignore"):
        for r in rows:
            total += np.uint64(int(r["h"]))
    return int(total)


def graph_fingerprint(graph) -> str:
    """Counts PLUS an edge-content checksum (cached on the graph): counts
    alone (P/n/nnz) let a rebuilt same-shape-different-edges graph resume
    silently against stale iteration state."""
    fp = getattr(graph, "_fingerprint_cache", None)
    if fp is None:
        fp = (f"P{graph.num_parts}-n{graph.n_vertices}-nnz{graph.nnz}"
              f"-c{_content_checksum(graph):016x}")
        graph._fingerprint_cache = fp
    return fp


def save_graph(graph, ckpt_dir: str) -> None:
    """Write the CSR blocks once (build-time checkpoint)."""
    gdir = os.path.join(ckpt_dir, "graph")
    meta_path = os.path.join(gdir, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            old = json.load(f)
        if old.get("fingerprint") == graph_fingerprint(graph):
            return
        drop_stale_iters = True
    else:
        drop_stale_iters = False
    tmp = gdir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    graph.blocks.write_parquet(tmp)
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump(
            {
                "num_parts": graph.num_parts,
                "sizes": graph.sizes.tolist(),
                "nnz": graph.nnz,
                "n_vertices": graph.n_vertices,
                "fingerprint": graph_fingerprint(graph),
            },
            f,
        )
    shutil.rmtree(gdir, ignore_errors=True)
    os.rename(tmp, gdir)
    if drop_stale_iters:
        # same ckpt_dir, different graph content: the iter=K dirs carry the
        # OLD fingerprint; read_iter would refuse them, leaving resume=True
        # hard-failed until a human deleted them by hand — remove them so the
        # next run restarts cleanly from iteration 0. Deliberately done ONLY
        # after the new graph dir is durably committed (tmp write + rename
        # above): a crash mid-write leaves the old graph AND its resumable
        # iteration state fully intact.
        import re as _re
        for name in os.listdir(ckpt_dir):
            if _re.fullmatch(r"iter=\d+", name):
                shutil.rmtree(os.path.join(ckpt_dir, name), ignore_errors=True)


def load_graph(ckpt_dir: str):
    import ray.data as rd

    from raygraph.graph import Graph

    gdir = os.path.join(ckpt_dir, "graph")
    with open(os.path.join(gdir, "meta.json")) as f:
        meta = json.load(f)
    files = [os.path.join(gdir, f) for f in os.listdir(gdir) if f.endswith(".parquet")]
    blocks = rd.read_parquet(files).materialize()
    return Graph(
        blocks=blocks,
        num_parts=meta["num_parts"],
        sizes=np.asarray(meta["sizes"], np.int64),
        nnz=meta["nnz"],
        n_vertices=meta["n_vertices"],
    )


def _iter_dir(ckpt_dir: str, it: int) -> str:
    return os.path.join(ckpt_dir, f"iter={it}")


def _write_state_part(tmp: str, p: int, names: list[str], *arrays) -> None:
    """Write one partition's state slice as its own one-row parquet file."""
    cols: dict[str, list] = {"part": [p]}
    for n, a in zip(names, arrays):
        cols[n] = [np.asarray(a)]
    pq.write_table(
        pa.table(cols), os.path.join(tmp, f"state_p{p:05d}.parquet"), compression="zstd"
    )


def write_iter(
    ckpt_dir: str,
    it: int,
    graph,
    state: dict,
    lineage: dict,
) -> None:
    """Checkpoint one iteration: state vectors + lineage, atomically.

    ``state`` maps name -> per-partition list whose items are numpy
    arrays, Ray ObjectRefs to them or ``fused.Part`` handles into a
    wave's group results. One ``fused.wave`` writer task per group
    writes its partitions straight from the object store, so the driver
    never materializes O(n) state (at cluster scale ``ckpt_dir`` is
    shared storage and each writer streams only its own slices). One
    file per partition keeps the checkpoint layout independent of the
    group count and resumable per partition.
    """
    d = _iter_dir(ckpt_dir, it)
    # tmp name must NOT start with 'iter=' — it may contain _SUCCESS before
    # the rename, and a crash in the commit window would otherwise make
    # latest_iter() parse 'K.tmp' forever after (ADVICE r1, medium)
    tmp = os.path.join(ckpt_dir, f"_tmp_iter_{it}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    names = sorted(state)
    try:
        import ray

        use_ray = ray.is_initialized()
    except ImportError:  # pragma: no cover - ray is always present in prod
        use_ray = False
    rows = [(tmp, p, names, *[state[n][p] for n in names])
            for p in range(graph.num_parts)]
    if use_ray:
        from raygraph.fused import fetch, wave

        done, _ = wave(_write_state_part, rows, send=False)
        fetch(done)  # wait for every group's writes
    else:
        for row in rows:
            _write_state_part(*row)
    lineage = dict(lineage)
    lineage.setdefault("iter", it)
    lineage.setdefault("partitions", graph.num_parts)
    lineage.setdefault("input_fingerprint", graph_fingerprint(graph))
    with open(os.path.join(tmp, "_lineage.json"), "w") as f:
        json.dump(lineage, f)
    open(os.path.join(tmp, "_SUCCESS"), "w").close()
    shutil.rmtree(d, ignore_errors=True)
    os.rename(tmp, d)


def latest_iter(ckpt_dir: str) -> int | None:
    """Largest iteration with a _SUCCESS marker, or None."""
    if not os.path.isdir(ckpt_dir):
        return None
    best = None
    for name in os.listdir(ckpt_dir):
        # match ONLY complete 'iter=<digits>' dirs; stale tmp dirs from a
        # crash mid-commit are garbage-collected, never parsed
        if name.startswith("_tmp_iter_"):
            shutil.rmtree(os.path.join(ckpt_dir, name), ignore_errors=True)
            continue
        if not re.fullmatch(r"iter=\d+", name):
            continue
        if os.path.exists(os.path.join(ckpt_dir, name, "_SUCCESS")):
            k = int(name.split("=", 1)[1])
            best = k if best is None else max(best, k)
    return best


def read_iter(ckpt_dir: str, it: int, graph) -> tuple[dict[str, list[np.ndarray]], dict]:
    d = _iter_dir(ckpt_dir, it)
    # one file per partition ("state_pNNNNN.parquet"); the legacy single
    # "state.parquet" layout matches the same glob and concat of one
    files = sorted(
        f for f in os.listdir(d) if f.startswith("state") and f.endswith(".parquet")
    )
    tbl = pa.concat_tables(
        [pq.read_table(os.path.join(d, f)) for f in files], promote_options="default"
    )
    with open(os.path.join(d, "_lineage.json")) as f:
        lineage = json.load(f)
    if lineage.get("input_fingerprint") != graph_fingerprint(graph):
        raise ValueError("checkpoint fingerprint mismatch — graph changed since checkpoint")
    parts = tbl["part"].to_pylist()
    state: dict[str, list[np.ndarray]] = {}
    for name in tbl.column_names:
        if name == "part":
            continue
        slices = [np.empty(0)] * graph.num_parts
        for i, p in enumerate(parts):
            slices[p] = np.asarray(tbl[name][i].values)
        state[name] = slices
    return state, lineage


def digest(arrays) -> str | None:
    """Short content hash of a list of arrays (None for None) — how a
    lineage records an array-valued parameter such as a PPR vector."""
    if arrays is None:
        return None
    import hashlib

    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, np.float64).tobytes())
    return h.hexdigest()[:16]


class Checkpoint:
    """One checkpointed run of an iterative algorithm.

    Every iteration's lineage carries ``algorithm`` plus the parameters
    that change the answer; ``start`` refuses to resume a checkpoint
    whose lineage disagrees with this call, so a run never returns
    another run's state as its own. With ``ckpt_dir=None`` it is inert:
    ``start`` reports a fresh run."""

    def __init__(self, ckpt_dir: str, graph, algorithm: str, **params):
        self.dir, self.graph = ckpt_dir, graph
        self.tag = {"algorithm": algorithm, **params}

    def start(self, resume: bool = True):
        """Write the graph once; when resuming, load the newest complete
        iteration. Returns ``(next_iter, state, lineage)``, or
        ``(0, None, None)`` for a fresh run."""
        if self.dir is None:
            return 0, None, None
        save_graph(self.graph, self.dir)
        self.t0 = time.perf_counter()
        last = latest_iter(self.dir) if resume else None
        if last is None:
            return 0, None, None
        state, lineage = read_iter(self.dir, last, self.graph)
        got = {k: lineage.get(k) for k in self.tag}
        if got != self.tag:
            raise ValueError(f"checkpoint {self.dir} iter={last} was written "
                             f"with {got}; this call has {self.tag}")
        return last + 1, state, lineage

    def write(self, it: int, state: dict, **fields) -> None:
        write_iter(self.dir, it, self.graph, state,
                   {"iter": it, **fields, "edges_traversed": self.graph.nnz,
                    "wall_s": time.perf_counter() - self.t0, **self.tag})
