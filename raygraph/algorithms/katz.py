"""Katz centrality — fused supersteps over the graph's block caches.

Reference-ecosystem counterpart: graphblas-algorithms
``katz_centrality`` (NetworkX semantics: power iteration
``x ← α·Aᵀx + β`` from x = 0, final L2 normalization). The engine's
scatter pushes x[src] along src→dst edges, i.e. y = Aᵀx, so
centrality accrues from IN-edges exactly as in the reference.

Each iteration is one ``fused.push_sum``: α folded into the scatter
multiply, β into the reduce's bincount (so vertices with no in-edges
still receive β). Unlike HITS there is no per-iteration global scalar —
the only global reduction is the final L2 norm, one float per
partition.
"""

from __future__ import annotations

import numpy as np

from raygraph.fused import block_cache, push_sum


def katz_fused(g, *, alpha: float = 0.05, beta: float = 1.0,
               itermax: int = 8, normalize: bool = True,
               x0: float = 0.0, keep_prev: bool = False):
    """Returns per-partition dense Katz state in ``g``'s layout after
    ``itermax`` unrolled iterations (bit-comparable to the unrolled SQL
    oracle at 6 decimals); L2-normalized when ``normalize``.

    ``x0`` is the uniform starting value: 0 gives Katz centrality
    (x ← α·Aᵀx + β); x0=1 with alpha=1, beta=0 gives the plain power
    iteration x ← Aᵀx, i.e. (in-edge) eigenvector centrality up to the
    final normalization — same recurrence, same task-wave shape.

    ``keep_prev=True`` (requires ``normalize=False``) returns
    ``(xs, xs_prev)`` — the final AND penultimate iterates from ONE
    run, so a Rayleigh norm-ratio consumer (spectral_radius) does not
    pay a second full power iteration."""
    import ray

    if keep_prev and normalize:
        raise ValueError("katz_fused: keep_prev requires normalize=False")
    if g.n_vertices == 0:
        return ([], []) if keep_prev else []
    sizes = [int(s) for s in g.sizes]
    cache = block_cache(g)

    x_refs = [ray.put(np.full(s, x0, np.float64)) for s in sizes]
    prev_refs = x_refs
    for _ in range(itermax):
        prev_refs = x_refs
        x_refs, _ = push_sum(cache, sizes, x_refs, alpha, beta)

    xs = ray.get(x_refs)
    if keep_prev:
        return xs, ray.get(prev_refs)
    if normalize:
        s = float(np.sqrt(sum(float((x * x).sum()) for x in xs)))
        if s > 0:
            xs = [x * (1.0 / s) for x in xs]
    return xs
