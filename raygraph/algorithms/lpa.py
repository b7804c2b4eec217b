"""Label propagation (synchronous, deterministic).

SURVEY.md §7.1 step 6: per round every vertex adopts the most frequent
label among its neighbors, ties broken by the smallest label (the
deterministic argmax the reference would express as a grouped count +
``max_second``-style reduction). Vertices with no neighbors keep their
label. Requires a symmetric adjacency for the usual community semantics.

Synchronous LPA can 2-cycle on bipartite-ish structures; ``itermax``
bounds the loop and the oracle (tests/fixtures.py lpa_oracle) applies
the identical update rule, so outputs match exactly at any cutoff.
"""

from __future__ import annotations

import numpy as np

from raygraph.engine import lpa_step


def label_propagation(
    graph,
    *,
    itermax: int = 30,
    ckpt_dir: str | None = None,
    resume: bool = True,
    mode: str = "fused",
) -> tuple[list[np.ndarray], dict]:
    """Returns (label slices, info). Initial label of v = its own id.

    ``mode="fused"`` (production): one task wave per round, label state
    stays in the object store (fused.lpa_fused). ``mode="dataset"``
    keeps the original engine.lpa_step Dataset supersteps as a
    small-scale cross-check (it round-trips full state through the
    driver each round); parity-tested. Only the fused path checkpoints.
    """
    labels = [i.copy() for i in graph.ids_slices()]
    if mode == "fused":
        from raygraph.fused import _lpa_fused, lpa_fused

        if ckpt_dir is None:
            return lpa_fused(graph, labels, itermax=itermax)
        return _lpa_fused(graph, labels, itermax, ckpt_dir, resume)
    if ckpt_dir is not None:
        raise ValueError("label_propagation: checkpoints need mode='fused'")
    it = -1
    for it in range(itermax):
        new = lpa_step(graph, labels)
        changed = any(bool((a != b).any()) for a, b in zip(new, labels))
        labels = new
        if not changed:
            break
    return labels, {"iters": it + 1, "edges_traversed": (it + 1) * graph.nnz}
