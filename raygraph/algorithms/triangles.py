"""Triangle counting — the masked-matmul recipe ``L.mxm(L, mask=L)``.

Reference semantics (SURVEY.md §7.1 step 6, FIXTURES.md §3d): with
L = tril(A, -1) of the symmetric binarized adjacency, the count is
``((L @ L) * L).reduce_scalar(plus)``. Distributed shape: orient each
undirected edge from its lower-(degree, id) endpoint (degree-based
orientation bounds every oriented out-degree by ~sqrt(m), which tames
power-law hubs — the skew handling for this kernel), enumerate wedges
(a,b) around each middle vertex from its local oriented adjacency, and
close them with a co-grouped semi-join against the oriented edge set:
wedge rows and edge rows ride the SAME groupby(part) shuffle, so no
side is ever broadcast. The masked mxm's ⊕=plus is the final count sum.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raygraph.util import part_of


def _pairs_by_size(values: np.ndarray, seg_starts: np.ndarray, seg_sizes: np.ndarray):
    """All intra-segment ordered pairs (i<j) — shared impl, NO cap: exact
    triangle counting must enumerate every wedge."""
    from raygraph.util import pairs_in_segments

    return pairs_in_segments(values, seg_starts, seg_sizes, cap=None)


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


def triangle_count(graph) -> int:
    """Exact triangle count of a symmetric, binarized, self-loop-free graph."""
    import ray

    P = graph.num_parts
    # orient needs deg/ids of DESTINATION partitions: each orient task
    # fetches the slices its block's dst set touches. On one node the
    # plasma gets are zero-copy mmaps; on a cluster this costs at most one
    # copy of the deg+id vectors per NODE (a broadcast-join-sized cost,
    # ~16B/vertex), not per task — acceptable for the one-shot orient
    # stage; a routed degree exchange would trade a full extra shuffle.
    deg_refs = [ray.put(d) for d in graph.deg_slices()]
    ids_refs = graph.ids_ref_list()

    def orient(tbl: pa.Table) -> pa.Table:
        """Per block: oriented edges + wedge pairs, keyed by part_of(a)."""
        out = []
        part_col = tbl["part"].to_numpy(zero_copy_only=False)
        for i in range(tbl.num_rows):
            p = int(part_col[i])
            row = {n: np.asarray(tbl[n][i].values) for n in
                   ("ids", "deg", "src_pos", "indptr", "dst_part", "dst_pos")}
            if len(row["dst_pos"]) == 0:
                continue
            ids_p, deg_p = row["ids"], row["deg"]
            counts = np.diff(row["indptr"])
            u = np.repeat(ids_p[row["src_pos"]], counts)
            du = np.repeat(deg_p[row["src_pos"]], counts)
            dp, dq = row["dst_part"], row["dst_pos"]
            v = np.empty(len(dq), np.uint64)
            dv = np.empty(len(dq), np.float64)
            for q in np.unique(dp):
                sel = dp == q
                v[sel] = ray.get(ids_refs[q])[dq[sel]]
                dv[sel] = ray.get(deg_refs[q])[dq[sel]]
            keep = (du < dv) | ((du == dv) & (u < v))
            u, v, du, dv = u[keep], v[keep], du[keep], dv[keep]
            if len(u) == 0:
                continue
            # oriented edge rows (kind=1), keyed by owner of a=u
            out.append(
                pa.table(
                    {
                        "part": part_of(u, P),
                        "a": u,
                        "b": v,
                        "cnt": np.zeros(len(u), np.int64),
                        "kind": np.ones(len(u), np.int8),
                    }
                )
            )
            # wedges around each middle u: pairs from S_u ordered by (deg,id)
            order = np.lexsort((v, dv, u))
            us, vs = u[order], v[order]
            starts = np.flatnonzero(np.r_[True, us[1:] != us[:-1]])
            sizes = np.diff(np.r_[starts, len(us)])
            wa, wb = _pairs_by_size(vs, starts, sizes)
            if len(wa):
                # local combine: same wedge pair can repeat across middles
                key_order = np.lexsort((wb, wa))
                wa, wb = wa[key_order], wb[key_order]
                new = np.r_[True, (wa[1:] != wa[:-1]) | (wb[1:] != wb[:-1])]
                st = np.flatnonzero(new)
                cnt = np.diff(np.r_[st, len(wa)]).astype(np.int64)
                wa, wb = wa[st], wb[st]
                out.append(
                    pa.table(
                        {
                            "part": part_of(wa, P),
                            "a": wa,
                            "b": wb,
                            "cnt": cnt,
                            "kind": np.zeros(len(wa), np.int8),
                        }
                    )
                )
        if not out:
            return pa.table(
                {
                    "part": pa.array([], pa.int32()),
                    "a": pa.array([], pa.uint64()),
                    "b": pa.array([], pa.uint64()),
                    "cnt": pa.array([], pa.int64()),
                    "kind": pa.array([], pa.int8()),
                }
            )
        return pa.concat_tables(out)

    def close(g: pa.Table) -> pa.Table:
        """Semi-join wedges against edges within the co-grouped partition."""
        a = np.asarray(g["a"].to_numpy(zero_copy_only=False), np.uint64)
        b = np.asarray(g["b"].to_numpy(zero_copy_only=False), np.uint64)
        cnt = np.asarray(g["cnt"].to_numpy(zero_copy_only=False), np.int64)
        kind = np.asarray(g["kind"].to_numpy(zero_copy_only=False), np.int8)
        # sort by (a, b, wedge-after-edge); a wedge is closed iff the first
        # row of its (a,b) group is an edge row
        order = np.lexsort((1 - kind, b, a))
        a, b, cnt, kind = a[order], b[order], cnt[order], kind[order]
        grp = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
        first = np.flatnonzero(grp)
        has_edge = kind[first] == 1
        gid = np.cumsum(grp) - 1
        closed = has_edge[gid] & (kind == 0)
        return pa.table({"partial": np.asarray([int(cnt[closed].sum())], np.int64)})

    # not a kernels._cogroup: orient already keys its rows by ``part``,
    # and a tag pass would copy the whole wedge table once more
    partials = (
        graph.blocks.map_batches(orient, batch_format="pyarrow")
        .groupby("part")
        .map_groups(close, batch_format="pyarrow")
        .take_all()
    )
    return int(sum(r["partial"] for r in partials))
