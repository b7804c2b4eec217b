"""PageRank — the reference's pagerank_3f (LAGraph PageRankGAP variant).

Semantics from notebooks/'Pagerank Demo.ipynb' cell 9 (SURVEY.md §3.2):
binarized adjacency, out-degree prescale d = d_out/damping, per
iteration ``r = teleport + A.T.mxv(t/d, plus_second)``, L1 residual
stop; dangling vertices are NOT redistributed (their mass decays to
teleport — matching the reference exactly, not networkx).

State is FP64 throughout (the reference runs FP32; FP64 partials make
the distributed sum order-insensitive to well below the 1e-6 match
tolerance — SURVEY.md §4 'Determinism').

Each iteration is one engine superstep (scatter + shuffle-reduce) and,
when ``ckpt_dir`` is given, one atomic per-partition Parquet checkpoint
with lineage, so a killed run resumes mid-convergence.
"""

from __future__ import annotations

import time

import numpy as np

from raygraph import checkpoint as ck
from raygraph.engine import spmv


def pagerank(
    graph,
    *,
    damping: float = 0.85,
    tol: float = 1e-6,
    itermax: int = 100,
    ckpt_dir: str | None = None,
    ckpt_every: int = 1,
    resume: bool = True,
    mode: str = "fused",  # "fused" (production: refs-only raw-task BSP) | "dataset" (cross-check)
    check_every: int = 1,
    weighted: bool = False,
) -> tuple[list[np.ndarray], dict]:
    """Returns (score slices per partition, info dict with iteration metrics).

    ``weighted=True``: mass splits proportionally to out-edge weights
    (w_uv / out-strength) instead of uniformly over out-neighbors —
    build the graph WITHOUT ``binarize`` so edge weights survive.
    Fused-path only (the dataset cross-check path stays the unweighted
    reference formula)."""
    if mode == "fused":
        from raygraph.fused import pagerank_fused

        return pagerank_fused(graph, damping=damping, tol=tol, itermax=itermax,
                              ckpt_dir=ckpt_dir, ckpt_every=ckpt_every, resume=resume,
                              check_every=check_every, weighted=weighted)
    if weighted:
        raise NotImplementedError("weighted pagerank: fused mode only")
    n = graph.n_vertices
    if n == 0:
        return graph.state(0.0), {"iters": 0, "residual": 0.0, "edges_traversed": 0}
    deg = graph.deg_slices()
    teleport = (1.0 - damping) / n

    r = graph.state(1.0 / n)
    history: list[dict] = []
    run = ck.Checkpoint(ckpt_dir, graph, "pagerank_3f", damping=damping,
                        weighted=False, personalization=None)
    it0, state, lineage = run.start(resume)
    if state is not None:
        r = state["r"]
        if lineage.get("residual", np.inf) <= tol:
            return r, {
                "iters": it0,
                "residual": lineage["residual"],
                "edges_traversed": it0 * graph.nnz,
                "resumed": True,
                "history": history,
            }

    residual = np.inf
    it = it0 - 1
    for it in range(it0, itermax):
        t0 = time.perf_counter()
        t = r
        # w = t/d with d = d_out/damping (absent for dangling: they simply
        # have no out-edges, so their w value is never read by the scatter)
        w = [
            np.divide(ti * damping, di, out=np.zeros_like(ti), where=di > 0)
            for ti, di in zip(t, deg)
        ]
        contrib = spmv(graph, w, "plus_second")
        r = [teleport + c for c in contrib]
        residual = float(sum(np.abs(ti - ri).sum() for ti, ri in zip(t, r)))
        wall = time.perf_counter() - t0
        history.append({"iter": it, "residual": residual, "wall_s": wall})
        if ckpt_dir is not None and (it % ckpt_every == 0 or residual <= tol):
            run.write(it, {"r": r}, residual=residual, tol=tol)
        if residual <= tol:
            break
    return r, {
        "iters": it + 1,
        "residual": residual,
        "edges_traversed": (it + 1) * graph.nnz,
        "history": history,
    }


def personalized_pagerank(
    graph,
    *,
    seeds=None,
    seed_pred=None,
    damping: float = 0.85,
    tol: float = 1e-6,
    itermax: int = 100,
    check_every: int = 1,
) -> tuple[list[np.ndarray], dict]:
    """Personalized PageRank: teleport mass flows back to a seed set
    instead of uniformly (r0 = p; r = (1-d)*p + d*A^T(r/deg); dangling
    mass decays exactly as in :func:`pagerank`).

    ``seeds`` is an iterable of vertex ids, or ``seed_pred`` a vectorized
    predicate over a uint64 id array (evaluated per partition slice — the
    seed set never materializes on the driver, so a billion-seed
    personalization costs one mask pass per partition). p is uniform over
    the seed set. Runs on the fused superstep engine — per-iteration cost
    identical to PageRank (the teleport operand is an array, shipped once
    as object refs).

    Reference analog: the pagerank notebook's damping/teleport structure
    (SURVEY.md §3.2) with LAGraph-style personalization."""
    from raygraph.fused import pagerank_fused

    ids = graph.ids_slices()
    if seed_pred is not None:
        masks = [np.asarray(seed_pred(s), bool) for s in ids]
    elif seeds is not None:
        seed_arr = np.unique(np.asarray(list(seeds), np.uint64))
        masks = [np.isin(s, seed_arr) for s in ids]
    else:
        raise ValueError("personalized_pagerank: need seeds or seed_pred")
    ns = sum(int(m.sum()) for m in masks)
    if ns == 0:
        raise ValueError("personalized_pagerank: empty seed set")
    p = [m.astype(np.float64) / ns for m in masks]
    return pagerank_fused(graph, damping=damping, tol=tol, itermax=itermax,
                          check_every=check_every, personalization=p)


def pagerank_dangling_fused(graph, *, damping: float = 0.85,
                            itermax: int = 8):
    """PageRank with EXACT dangling-mass redistribution — the true
    random-surfer chain (networkx ``pagerank`` semantics): each
    iteration, the mass sitting on vertices with no out-edges is
    redistributed uniformly, so Σx = 1 holds exactly at every step
    (the production ``pagerank_fused`` uses the leak formulation the
    reference notebooks use; this variant is the stochastic-complete
    one).

    Distributed shape: ``fused.push_sum`` waves with x·damping/outdeg
    folded into the scatter and the iteration's scalar teleport
    β = (1−d)/n + d·dangling_mass/n into the reduce; the reduce also
    returns each partition's dangling mass, so the driver holds refs
    and 1 scalar per iteration."""
    from raygraph.fused import (_sum_reduce, block_cache, fetch, inv_outdeg,
                                 push_sum, wave)

    n = graph.n_vertices
    if n == 0:
        return []
    cache = block_cache(graph)
    sizes = [int(s) for s in graph.sizes]
    # edges are hash-partitioned by src, so a vertex's out-edges are in
    # its OWN partition's block: invd == 0 exactly marks dangling
    invd = inv_outdeg(cache, sizes, damping)
    # x0 = 1/n everywhere: a reduce with no packets, which also sums the
    # initial dangling mass
    x, dang, _ = wave(_sum_reduce, [(s, 1.0 / n, i) for s, i in zip(sizes, invd)],
                      n_local=2, send=False)
    for _ in range(itermax):
        beta = (1.0 - damping) / n + damping * float(sum(fetch(dang))) / n
        x, dang = push_sum(cache, sizes, x, invd, beta, invd)
    return fetch(x)
