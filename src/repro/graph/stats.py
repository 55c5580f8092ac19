"""Graph-statistics helpers used by the analysis and reporting code."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.graph.csr import CSRMatrix
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.sliced_csr import SlicedCSRMatrix


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a row-degree (out-degree) distribution."""

    mean: float
    std: float
    max: int
    empty_rows: int
    gini: float

    @classmethod
    def from_adjacency(cls, adj: CSRMatrix) -> "DegreeStats":
        deg = adj.row_nnz().astype(np.float64)
        return cls(
            mean=float(deg.mean()) if len(deg) else 0.0,
            std=float(deg.std()) if len(deg) else 0.0,
            max=int(deg.max(initial=0)),
            empty_rows=int((deg == 0).sum()),
            gini=_gini(deg),
        )


def _gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative array (degree-skew measure)."""
    if len(values) == 0:
        return 0.0
    sorted_vals = np.sort(values)
    total = sorted_vals.sum()
    if total == 0:
        return 0.0
    n = len(sorted_vals)
    cum = np.cumsum(sorted_vals)
    return float((n + 1 - 2 * (cum / total).sum()) / n)


def format_sizes(adj: CSRMatrix) -> Dict[str, int]:
    """Byte footprint of the same adjacency in COO, CSR and sliced CSR."""
    sliced = SlicedCSRMatrix.from_csr(adj)
    return {
        "coo_bytes": adj.to_coo().nbytes,
        "csr_bytes": adj.nbytes,
        "sliced_csr_bytes": sliced.nbytes,
        "num_slices": sliced.num_slices,
    }


def summarize(graph: DynamicGraph) -> Dict[str, object]:
    """Dataset-level summary used by the Table 1 benchmark and examples."""
    edge_counts = graph.edge_counts()
    degrees = [DegreeStats.from_adjacency(s.adjacency) for s in graph.snapshots]
    return {
        "name": graph.name,
        "num_nodes": graph.num_nodes,
        "num_snapshots": graph.num_snapshots,
        "feature_dim": graph.feature_dim,
        "total_edges": int(edge_counts.sum()),
        "edges_per_snapshot_mean": float(edge_counts.mean()),
        "edges_per_snapshot_max": int(edge_counts.max()),
        "avg_degree": float(edge_counts.mean() / graph.num_nodes),
        "avg_change_rate": graph.average_change_rate(),
        "avg_empty_row_fraction": float(
            np.mean([d.empty_rows / graph.num_nodes for d in degrees])
        ),
        "degree_gini_mean": float(np.mean([d.gini for d in degrees])),
    }
