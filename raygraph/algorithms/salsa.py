"""SALSA hubs & authorities — degree-normalized HITS (Lempel & Moran
2000, "The stochastic approach for link-structure analysis").

Reference-ecosystem counterpart: the graphblas-algorithms ``hits``
family; SALSA replaces HITS's raw adjacency half-steps with the
random-walk (degree-normalized) ones:

    a_i(j) = Σ_{u→j}  h_{i-1}(u) / outdeg(u)
    h_i(u) = Σ_{u→j}  a_i(j)     / indeg(j)

so each half-step is a stochastic-matrix multiply and the iterate's L1
mass is conserved (up to dangling loss) — no per-iteration scalar
normalization is needed, unlike HITS.

Each half-step is one ``fused.push_sum`` whose scatter multiplies by a
PER-PARTITION inverse out-degree vector instead of HITS's global
scalar — derived once per partition from the block cache itself
(``fused.inv_outdeg``), so no extra shuffle and no broadcast of any
global state. Same shape on the transposed graph for the hub step
(outdeg of gT = indeg of g).
"""

from __future__ import annotations

import numpy as np

from raygraph.fused import block_cache, check_layout, fetch, inv_outdeg, push_sum


def salsa_fused(g, gT, *, itermax: int = 4):
    """Returns (hub_slices, auth_slices) — dense per-partition state in
    ``g``'s layout, each L1-normalized over its final iterate. ``gT``
    must be the transposed graph built over the same vertex universe
    and num_parts (layout is a function of the id set alone)."""
    import ray

    check_layout(g, gT, "salsa_fused")
    if g.n_vertices == 0:
        return [], []
    sizes = [int(s) for s in g.sizes]
    cacheA, cacheT = block_cache(g), block_cache(gT)
    invA = inv_outdeg(cacheA, sizes)   # 1/outdeg(g)  — authority step
    invT = inv_outdeg(cacheT, sizes)   # 1/indeg(g)   — hub step

    h_refs = [ray.put(np.ones(s, np.float64)) for s in sizes]
    a_refs = h_refs
    for _ in range(itermax):
        a_refs, _ = push_sum(cacheA, sizes, h_refs, invA)   # a ← D_out⁻¹ᵀAᵀ h
        h_refs, _ = push_sum(cacheT, sizes, a_refs, invT)   # h ← D_in⁻¹ᵀA a

    hs, as_ = fetch(h_refs), fetch(a_refs)

    def l1norm(xs):
        s = float(sum(float(x.sum()) for x in xs))
        return [x * (1.0 / s) for x in xs] if s > 0 else xs

    return l1norm(hs), l1norm(as_)
