"""Connected components — FastSV (Zhang, Azad, Buluç, SIAM PP20).

Semantics from the reference notebook 'Connected Components -- FastSV'
cell 30 (SURVEY.md §3.3). Requires a SYMMETRIC adjacency (build the
graph with ``symmetrize=True``). Output invariant: f[v] = min vertex id
of v's component (validated exactly, incl. under permutation).

Per round, each step maps to a distributed primitive:
  hooking      mngp = A.mxv(gp, min_second)        -> engine.spmv_with_mask
  reduce-assign f(min)[f] << mngp                  -> engine.scatter_min_by_id
                 (duplicate targets combined by min — the reference notes
                 this divergence from plain GrB_assign in cell 19)
  shortcuts    f = min(f, mngp); f = min(f, gp)    -> aligned slice math
  pointer jump gp = f[f]                           -> engine.gather_by_id (join)
  termination  any(gp != gp_prev)                  -> driver reduction
"""

from __future__ import annotations

import numpy as np

from raygraph.engine import gather_by_id, scatter_min_by_id, spmv_with_mask


def connected_components(
    graph,
    *,
    itermax: int = 64,
    ckpt_dir: str | None = None,
    resume: bool = True,
    mode: str = "fused",  # "fused" (production: refs-only raw-task BSP) | "dataset" (cross-check)
) -> tuple[list[np.ndarray], dict]:
    """Returns (parent slices f with f[v]=component min id, info dict).

    ``mode="dataset"`` runs the Dataset-primitive round below — the
    parity reference for ``fused.cc_fused``; only the fused path
    checkpoints."""
    if mode == "fused":
        from raygraph.fused import cc_fused

        return cc_fused(graph, itermax=itermax, ckpt_dir=ckpt_dir, resume=resume)
    if ckpt_dir is not None:
        raise ValueError("connected_components: checkpoints need mode='fused'")
    ids = graph.ids_slices()
    f = [i.copy() for i in ids]
    gp = [i.copy() for i in ids]
    it = -1
    for it in range(itermax):
        mngp, mask = spmv_with_mask(graph, gp, "min_second", out_dtype=np.uint64)
        # hooking reduce-assign: f[f[v]] <- min(mngp[v]) over masked v
        tgt = [fi[mi] for fi, mi in zip(f, mask)]
        val = [vi[mi] for vi, mi in zip(mngp, mask)]
        hooked, hmask = scatter_min_by_id(graph, tgt, val)
        f = [np.where(hm, np.minimum(fi, hv), fi) for fi, hv, hm in zip(f, hooked, hmask)]
        f = [np.where(mi, np.minimum(fi, vi), fi) for fi, vi, mi in zip(f, mngp, mask)]
        f = [np.minimum(fi, gi) for fi, gi in zip(f, gp)]
        gp_new = gather_by_id(graph, f, f)  # pointer jumping: gp = f[f]
        changed = any(bool((a != b).any()) for a, b in zip(gp_new, gp))
        gp = gp_new
        if not changed:
            break
    return f, {"iters": it + 1, "edges_traversed": (it + 1) * graph.nnz}
