"""HITS hubs & authorities — fused supersteps over A and Aᵀ block caches.

Reference-ecosystem counterpart: graphblas-algorithms ``hits`` (power
iteration ``a ← Aᵀh; h ← Aa`` with per-half-step normalization). The
engine's scatter pushes x[src] along src→dst edges (y = Aᵀx), so the
authority half-step runs on the graph's own blocks and the hub half-step
on the TRANSPOSED graph's blocks — the standard store-A-and-Aᵀ layout.

Both graphs must be built over the same vertex universe and num_parts:
the per-partition layout (hash partition by id, ids sorted in-partition)
is a function of the id set alone, so their dense state slices are
interchangeable (asserted).

Each half-step is one ``fused.push_sum``. L1 normalization needs one
global scalar per half-step (the reduce's per-partition sums); the
divide is FOLDED into the next scatter (x·(1/s) inside the task) so no
extra task wave ever touches the state. The driver holds only object
refs and 2 scalars per iteration.
"""

from __future__ import annotations

import numpy as np

from raygraph.fused import block_cache, check_layout, fetch, push_sum


def hits_fused(g, gT, *, itermax: int = 8):
    """Returns (hub_slices, auth_slices) — dense per-partition state in
    ``g``'s layout, each L1-normalized over its final raw iterate."""
    import ray

    check_layout(g, gT, "hits_fused")
    if g.n_vertices == 0:
        return [], []
    sizes = [int(s) for s in g.sizes]
    cacheA, cacheT = block_cache(g), block_cache(gT)

    def half_step(cache, x_refs, inv_s):
        y_refs, s_refs = push_sum(cache, sizes, x_refs, inv_s)
        s = float(sum(fetch(s_refs)))
        return y_refs, 1.0 / s if s > 0 else 0.0

    h_refs = [ray.put(np.ones(s, np.float64)) for s in sizes]
    a_refs, inv_h, inv_a = h_refs, 1.0, 0.0
    for _ in range(itermax):
        a_refs, inv_a = half_step(cacheA, h_refs, inv_h)
        h_refs, inv_h = half_step(cacheT, a_refs, inv_a)
    hub = [x * inv_h for x in fetch(h_refs)]
    auth = [x * inv_a for x in fetch(a_refs)]
    return hub, auth
