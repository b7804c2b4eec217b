"""BSP superstep engine: SpMV as a Ray Data gather-scatter over CSR blocks.

Each GraphBLAS ``mxv``/``vxm`` step (reference graphblas/core/matrix.py:2163,
vector.py:1259) is re-expressed exactly as the north-star prescribes:
``map_batches`` over the CSR-block Dataset emits (dst_part, dst_pos,
partial) contributions — pre-combined per batch with the semiring's ⊕
monoid so shuffle volume is bounded by distinct destinations, the
combiner-before-shuffle rule — and ``groupby(dst_part)`` performs the
shuffle-reduce into dense per-partition slices.

The gather side is per-partition: block p only ever reads the state slice
of partition p (edges are grouped by src partition), so state travels as
one ``ray.put`` object ref per partition and each scatter task fetches
only its own slice — no broadcast of the full vector, which is what makes
the step valid when the vertex state no longer fits one node.

Skew note: hub destinations are bounded by the per-batch local combine
(at most one contribution row per (source block, destination vertex)), so
the reduce key space is at most P rows per destination; the generic
Dataset kernel (kernels.salted_aggregate) bounds hub keys the same way
with a per-block combine before its shuffle.

Role note (round 2): this dataset-mode engine is the CROSS-CHECK path —
its supersteps assemble per-partition result slices on the driver
(``take_all`` of the reduced rows below), which is fine at test scale and
for one-shot queries but not for 10^10-vertex iteration. Production
iteration (PageRank/CC/LPA/BFS defaults) runs on ``raygraph.fused``,
whose supersteps keep state as per-partition object refs end-to-end and
touch the driver only for scalar convergence checks; test_fused.py pins
bit-parity between the two modes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raygraph.ops import SEMIRING, Monoid, local_combine

_POS_BITS = np.uint64(40)
_POS_MASK = np.uint64((1 << 40) - 1)


def identity_for(monoid: Monoid, dtype) -> object:
    dt = np.dtype(dtype)
    if dt.kind in "ui":
        if monoid.name == "min":
            return np.iinfo(dt).max
        if monoid.name in ("max", "any"):
            return np.iinfo(dt).min if dt.kind == "i" else 0
        if monoid.name == "plus":
            return 0
        if monoid.name == "times":
            return 1
        if monoid.name == "bor":
            return 0  # OR-identity: no bits set (signed included)
        if monoid.name == "band":
            # AND-identity: ALL bits set — -1 on signed, max on unsigned
            return -1 if dt.kind == "i" else np.iinfo(dt).max
        return 0
    if dt.kind == "b":
        return monoid.name in ("land", "min", "times", "band")
    return monoid.identity


def _block_arrays(tbl: pa.Table, i: int, names: tuple[str, ...]):
    # tbl[n] is a ChunkedArray; indexing it handles chunk offsets correctly
    return [np.asarray(tbl[n][i].values) for n in names]


def make_scatter(x_refs, semiring_name: str, out_dtype, frontier_refs=None):
    """Scatter closure over per-partition state refs (one ray.get per block).

    With ``frontier_refs`` (per-partition sorted position arrays) only the
    frontier rows' adjacency is processed — the reference's masked mxv
    ``A.mxv(q)`` where q is sparse (graphblas/core/mask.py:131-200);
    work is Σ frontier out-degree instead of nnz."""
    sr = SEMIRING[semiring_name]

    def scatter(tbl: pa.Table) -> pa.Table:
        import ray

        parts_out: list[np.ndarray] = []
        pos_out: list[np.ndarray] = []
        val_out: list[np.ndarray] = []
        sblk_out: list[np.ndarray] = []
        part_col = tbl["part"].to_numpy(zero_copy_only=False)
        for i in range(tbl.num_rows):
            p = int(part_col[i])
            src_pos, indptr, dst_part, dst_pos, w = _block_arrays(
                tbl, i, ("src_pos", "indptr", "dst_part", "dst_pos", "w")
            )
            if len(w) == 0:
                continue
            x = ray.get(x_refs[p])  # gather: only THIS partition's slice
            if frontier_refs is not None:
                fpos = ray.get(frontier_refs[p])
                j = np.searchsorted(src_pos, fpos)
                ok = j < len(src_pos)
                ok[ok] = src_pos[j[ok]] == fpos[ok]
                rows = j[ok]
                if len(rows) == 0:
                    continue
                starts = indptr[rows]
                lens = indptr[rows + 1] - starts
                total = int(lens.sum())
                if total == 0:
                    continue
                off = np.repeat(np.cumsum(lens) - lens, lens)
                eidx = np.repeat(starts, lens) + (
                    np.arange(total, dtype=np.int64) - off
                )
                src_pos, indptr = src_pos[rows], None
                dst_part, dst_pos, w = dst_part[eidx], dst_pos[eidx], w[eidx]
                xv = np.repeat(x[src_pos], lens)
            else:
                counts = np.diff(indptr)
                xv = np.repeat(x[src_pos], counts)
            val = np.asarray(sr.binary(w, xv), dtype=out_dtype)
            key = (dst_part.astype(np.uint64) << _POS_BITS) | dst_pos.astype(np.uint64)
            k, v = local_combine(sr.monoid, key, val)  # per-batch combiner
            parts_out.append((k >> _POS_BITS).astype(np.int32))
            pos_out.append((k & _POS_MASK).astype(np.int64))
            val_out.append(v)
            sblk_out.append(np.full(len(k), p, np.int32))
        if not parts_out:
            return pa.table(
                {
                    "part": pa.array([], pa.int32()),
                    "pos": pa.array([], pa.int64()),
                    "val": pa.array(np.empty(0, dtype=out_dtype)),
                    "sblk": pa.array([], pa.int32()),
                }
            )
        return pa.table(
            {
                "part": np.concatenate(parts_out),
                "pos": np.concatenate(pos_out),
                "val": np.concatenate(val_out),
                "sblk": np.concatenate(sblk_out),
            }
        )

    return scatter


def spmv(
    graph,
    x_slices: list[np.ndarray],
    semiring: str = "plus_times",
    *,
    out_dtype=None,
    frontier: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """w[dst] = ⊕_src A[src,dst] ⊗ x[src] — one distributed superstep.

    Equivalent to the reference's ``A.T.mxv(x, semiring)`` over the
    src->dst edge orientation (what PageRank's scatter uses,
    Pagerank notebook cell 9: ``A.T.mxv(w, plus_second)``). Returns dense
    per-partition slices initialized to the monoid identity — callers that
    need GraphBLAS absence semantics (missing != identity) also get the
    contribution mask via :func:`spmv_with_mask`.
    """
    dense, _ = spmv_with_mask(graph, x_slices, semiring, out_dtype=out_dtype,
                              frontier=frontier)
    return dense


def spmv_with_mask(graph, x_slices, semiring="plus_times", *, out_dtype=None,
                   frontier=None):
    import ray

    sr = SEMIRING[semiring]
    out_dtype = np.dtype(out_dtype or np.result_type(*(s.dtype for s in x_slices)))
    ident = identity_for(sr.monoid, out_dtype)

    x_refs = [ray.put(s) for s in x_slices]
    f_refs = None
    if frontier is not None:
        f_refs = [ray.put(np.asarray(f, np.int64)) for f in frontier]
    contrib = graph.blocks.map_batches(
        make_scatter(x_refs, semiring, out_dtype, f_refs), batch_format="pyarrow"
    )

    monoid = sr.monoid

    def reduce_part(g: pa.Table) -> pa.Table:
        p = int(g["part"][0].as_py())
        pos = np.asarray(g["pos"].to_numpy(zero_copy_only=False), np.int64)
        val = np.asarray(g["val"].to_numpy(zero_copy_only=False), out_dtype)
        sblk = np.asarray(g["sblk"].to_numpy(zero_copy_only=False), np.int32)
        # deterministic reduction order: (pos, source block) — makes FP sums
        # bit-identical regardless of how blocks were batched (SURVEY.md §4
        # "Determinism")
        order = np.lexsort((sblk, pos))
        pos, val = pos[order], val[order]
        starts = np.flatnonzero(np.r_[True, pos[1:] != pos[:-1]])
        k = pos[starts]
        v = monoid.ufunc.reduceat(val, starts) if len(val) else val
        return pa.Table.from_pydict({"part": [p], "pos": [k], "val": [v]})

    rows = contrib.groupby("part").map_groups(reduce_part, batch_format="pyarrow").take_all()

    dense = [np.full(int(s), ident, dtype=out_dtype) for s in graph.sizes]
    mask = [np.zeros(int(s), bool) for s in graph.sizes]
    for row in rows:
        p = int(row["part"])
        pos = np.asarray(row["pos"], np.int64)
        dense[p][pos] = np.asarray(row["val"], out_dtype)
        mask[p][pos] = True
    return dense, mask


def lpa_step(graph, labels: list[np.ndarray]) -> list[np.ndarray]:
    """One synchronous label-propagation round.

    new_label[v] = the most frequent label among in-neighbors of v, ties
    broken by the smallest label; vertices with no neighbors keep theirs.
    Scatter emits locally pre-counted (dst, label, count) triples; the
    grouped reduce sums counts and takes the deterministic argmax
    (SURVEY.md §7.1 step 6: ``max_second`` argmax-by-count via grouped
    count + max).
    """
    import ray

    lab_dt = np.dtype(labels[0].dtype) if labels else np.dtype(np.uint64)
    lab_refs = [ray.put(s) for s in labels]

    def scatter(tbl: pa.Table) -> pa.Table:
        part_col = tbl["part"].to_numpy(zero_copy_only=False)
        op, opos, olab, ocnt = [], [], [], []
        for i in range(tbl.num_rows):
            p = int(part_col[i])
            src_pos, indptr, dst_part, dst_pos, w = _block_arrays(
                tbl, i, ("src_pos", "indptr", "dst_part", "dst_pos", "w")
            )
            if len(w) == 0:
                continue
            lab = ray.get(lab_refs[p])
            lv = np.repeat(lab[src_pos], np.diff(indptr))
            # local count per (dst_part, dst_pos, label)
            order = np.lexsort((lv, dst_pos, dst_part))
            dp, dq, ll = dst_part[order], dst_pos[order], lv[order]
            new = np.r_[True, (dp[1:] != dp[:-1]) | (dq[1:] != dq[:-1]) | (ll[1:] != ll[:-1])]
            starts = np.flatnonzero(new)
            cnt = np.diff(np.r_[starts, len(dp)])
            op.append(dp[starts])
            opos.append(dq[starts])
            olab.append(ll[starts])
            ocnt.append(cnt.astype(np.int64))
        if not op:
            # match the non-empty batches' label dtype or block schemas
            # diverge and the groupby fails to unify
            return pa.table(
                {
                    "part": pa.array([], pa.int32()),
                    "pos": pa.array([], pa.int64()),
                    "lab": pa.array(np.empty(0, lab_dt)),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "part": np.concatenate(op),
                "pos": np.concatenate(opos),
                "lab": np.concatenate(olab),
                "cnt": np.concatenate(ocnt),
            }
        )

    contrib = graph.blocks.map_batches(scatter, batch_format="pyarrow")

    def reduce_part(g: pa.Table) -> pa.Table:
        p = int(g["part"][0].as_py())
        pos = np.asarray(g["pos"].to_numpy(zero_copy_only=False), np.int64)
        lab = np.asarray(g["lab"].to_numpy(zero_copy_only=False), lab_dt)
        cnt = np.asarray(g["cnt"].to_numpy(zero_copy_only=False), np.int64)
        # total count per (pos, label)
        order = np.lexsort((lab, pos))
        pos, lab, cnt = pos[order], lab[order], cnt[order]
        new = np.r_[True, (pos[1:] != pos[:-1]) | (lab[1:] != lab[:-1])]
        starts = np.flatnonzero(new)
        tot = np.add.reduceat(cnt, starts)
        pos, lab = pos[starts], lab[starts]
        # deterministic argmax per pos: max count, tie -> min label.
        # rows are sorted by (pos, lab asc); stable-sort by count desc keeps
        # label ascending within equal counts, so first row per pos wins.
        order2 = np.lexsort((lab, -tot, pos))
        pos, lab, tot = pos[order2], lab[order2], tot[order2]
        first = np.r_[True, pos[1:] != pos[:-1]]
        return pa.Table.from_pydict(
            {"part": [p], "pos": [pos[first]], "lab": [lab[first]]}
        )

    rows = contrib.groupby("part").map_groups(reduce_part, batch_format="pyarrow").take_all()
    out = [s.copy() for s in labels]
    for row in rows:
        p = int(row["part"])
        out[p][np.asarray(row["pos"], np.int64)] = np.asarray(row["lab"], lab_dt)
    return out


# --------------------------------------------------------------------------
# Vertex-space distributed primitives (used by FastSV connected components)
# --------------------------------------------------------------------------


def _slices_dataset(graph, arrays_per_part: dict[str, list[np.ndarray]]):
    """Per-partition driver slices -> a Ray Dataset of tagged COO rows."""
    import ray.data as rd

    tables = []
    for p in range(graph.num_parts):
        cols = {"part": np.full(len(next(iter(arrays_per_part.values()))[p]), p, np.int32)}
        for name, sl in arrays_per_part.items():
            cols[name] = sl[p]
        if len(cols["part"]):
            tables.append(pa.table(cols))
    if not tables:
        return None
    return rd.from_arrow(tables)


def scatter_min_by_id(graph, target_ids: list[np.ndarray], values: list[np.ndarray]):
    """Reduce-assign: out[target] = min(values routed to target) over all parts.

    The FastSV hooking step ``f(binary.min)[I] << mngp`` — a GrB_assign
    with duplicate indices combined by min (reference notebook
    'Connected Components -- FastSV' cell 19; SURVEY.md §2.1 'assign').
    Returns (dense_slices, mask_slices): mask marks targets that received
    any value; dense holds the min per target (identity elsewhere).
    """
    import ray

    from raygraph.ops import MONOID
    from raygraph.util import part_of

    monoid = MONOID["min"]
    dt = values[0].dtype if values else np.uint64
    ident = identity_for(monoid, dt)

    def route(tbl: pa.Table) -> pa.Table:
        tgt = np.asarray(tbl["tgt"].to_numpy(zero_copy_only=False), np.uint64)
        val = np.asarray(tbl["val"].to_numpy(zero_copy_only=False), dt)
        p = part_of(tgt, graph.num_parts)
        order = np.lexsort((tgt, p))
        p, tgt, val = p[order], tgt[order], val[order]
        new = np.r_[True, (p[1:] != p[:-1]) | (tgt[1:] != tgt[:-1])]
        starts = np.flatnonzero(new)
        return pa.table(
            {
                "part": p[starts],
                "tgt": tgt[starts],
                "val": monoid.ufunc.reduceat(val, starts) if len(val) else val,
            }
        )

    src = _slices_dataset(graph, {"tgt": target_ids, "val": values})
    if src is None:
        return graph.state(ident, dtype=dt), graph.state(False, dtype=bool)
    routed = src.map_batches(route, batch_format="pyarrow")
    ids_refs = graph.ids_ref_list()  # cached: one put per run, not per round

    def reduce_part(g: pa.Table) -> pa.Table:
        p = int(g["part"][0].as_py())
        ids = ray.get(ids_refs[p])
        tgt = np.asarray(g["tgt"].to_numpy(zero_copy_only=False), np.uint64)
        val = np.asarray(g["val"].to_numpy(zero_copy_only=False), dt)
        pos = np.searchsorted(ids, tgt)
        pos = np.minimum(pos, max(len(ids) - 1, 0))
        # drop targets not owned here (ADVICE r1: silent neighbor-assign hazard)
        ok = ids[pos] == tgt if len(ids) else np.zeros(len(tgt), bool)
        k, v = local_combine(monoid, pos[ok], val[ok])
        return pa.Table.from_pydict({"part": [p], "pos": [k], "val": [v]})

    rows = routed.groupby("part").map_groups(reduce_part, batch_format="pyarrow").take_all()
    dense = [np.full(int(s), ident, dtype=dt) for s in graph.sizes]
    mask = [np.zeros(int(s), bool) for s in graph.sizes]
    for row in rows:
        p = int(row["part"])
        pos = np.asarray(row["pos"], np.int64)
        dense[p][pos] = np.asarray(row["val"], dt)
        mask[p][pos] = True
    return dense, mask


def gather_by_id(graph, state: list[np.ndarray], query_ids: list[np.ndarray]):
    """out[k] = state[query_ids[k]] — duplicate-index gather as a join.

    The FastSV pointer-jumping step ``gp << f[I]`` (reference notebook
    cell 30; SURVEY.md §2.1 'extract' row: gather with duplicate indices
    = join of the index table on f). Routes each query to the partition
    owning the id, looks the value up there, and routes the answer back.
    """
    import ray

    from raygraph.util import part_of

    dt = state[0].dtype if state else np.uint64
    state_refs = [ray.put(a) for a in state]
    ids_refs = graph.ids_ref_list()  # cached: one put per run, not per round

    # request rows: (owner part, qid, home part, home pos)
    home = {
        "qid": query_ids,
        "home": [np.full(len(q), p, np.int32) for p, q in enumerate(query_ids)],
        "idx": [np.arange(len(q), dtype=np.int64) for q in query_ids],
    }
    src = _slices_dataset(graph, home)
    if src is None:
        return graph.state(0, dtype=dt)

    def route(tbl: pa.Table) -> pa.Table:
        qid = np.asarray(tbl["qid"].to_numpy(zero_copy_only=False), np.uint64)
        return pa.table(
            {
                "part": part_of(qid, graph.num_parts),
                "qid": qid,
                "home": tbl["home"],
                "idx": tbl["idx"],
            }
        )

    def lookup(g: pa.Table) -> pa.Table:
        p = int(g["part"][0].as_py())
        ids = ray.get(ids_refs[p])
        st = ray.get(state_refs[p])
        qid = np.asarray(g["qid"].to_numpy(zero_copy_only=False), np.uint64)
        pos = np.minimum(np.searchsorted(ids, qid), max(len(ids) - 1, 0))
        # answer only queries whose id is actually owned here; unknown ids
        # are dropped (callers see the dense default) instead of silently
        # returning a neighboring vertex's value (ADVICE r1)
        ok = ids[pos] == qid if len(ids) else np.zeros(len(qid), bool)
        return pa.table(
            {"part": g["home"].filter(pa.array(ok)),
             "idx": g["idx"].filter(pa.array(ok)),
             "val": st[pos[ok]]}
        )

    back = (
        src.map_batches(route, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lookup, batch_format="pyarrow")
    )

    def assemble(g: pa.Table) -> pa.Table:
        p = int(g["part"][0].as_py())
        idx = np.asarray(g["idx"].to_numpy(zero_copy_only=False), np.int64)
        val = np.asarray(g["val"].to_numpy(zero_copy_only=False), dt)
        out = np.zeros(int(graph.sizes[p]), dtype=dt)
        out[idx] = val
        return pa.Table.from_pydict({"part": [p], "val": [out]})

    rows = back.groupby("part").map_groups(assemble, batch_format="pyarrow").take_all()
    result = [np.zeros(int(s), dtype=dt) for s in graph.sizes]
    for row in rows:
        result[int(row["part"])] = np.asarray(row["val"], dt)
    return result
