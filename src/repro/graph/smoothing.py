"""Edge-life graph smoothening.

Raw interaction streams (e.g. Network Repository temporal graphs) yield
extremely sparse per-snapshot edge sets.  Following ESDG — whose smoothened
edge counts the paper reports as ``#E-S`` in Table 1 — every edge observed at
timestep ``t`` is kept alive for ``edge_life`` subsequent snapshots, which
densifies snapshots and raises the topology overlap between neighbours.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.graph.csr import CSRMatrix
from repro.utils.validation import check_positive


def apply_edge_life(
    adjacencies: Sequence[CSRMatrix], edge_life: int
) -> List[CSRMatrix]:
    """Smoothen a snapshot sequence with the edge-life rule.

    The output adjacency at timestep ``t`` is the union of the raw edges
    observed at timesteps ``max(0, t - edge_life + 1) .. t``.

    Parameters
    ----------
    adjacencies:
        Raw per-snapshot adjacencies (all the same shape).
    edge_life:
        Number of snapshots an edge stays alive (1 = no smoothening).
    """
    check_positive("edge_life", edge_life)
    if not adjacencies:
        return []
    shape = adjacencies[0].shape
    for adj in adjacencies:
        if adj.shape != shape:
            raise ValueError("all adjacencies must share the same shape")
    if edge_life == 1:
        return list(adjacencies)

    keys = [adj.edge_keys() for adj in adjacencies]
    smoothened: List[CSRMatrix] = []
    for t in range(len(adjacencies)):
        window = keys[max(0, t - edge_life + 1) : t + 1]
        # from_edge_keys deduplicates, so the window's union is one build.
        smoothened.append(CSRMatrix.from_edge_keys(np.concatenate(window), shape))
    return smoothened
