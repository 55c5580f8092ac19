"""Fig. 5: global-memory requests and transactions vs feature dimension.

The paper runs a GCN with GNNAdvisor and shows that the number of
transactions begins to rise once the feature dimension exceeds 8 (32 bytes)
while the number of requests only rises past 32 (128 bytes).  Here the
per-aggregation counts come from the CSR aggregation cost model on one
representative snapshot.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import ExperimentConfig, format_table, load_experiment_graph
from repro.gpu.spec import GPUSpec
from repro.kernels.spmm_csr import GESpMMAggregation

DIMENSIONS = (2, 4, 8, 16, 32, 64, 128)


def run(config: Optional[ExperimentConfig] = None) -> Dict[int, Dict[str, float]]:
    """Requests/transactions of one CSR aggregation per feature dimension."""
    config = config or ExperimentConfig()
    graph = load_experiment_graph("hepth", config)
    adjacency = graph.snapshots[0].adjacency
    spec = GPUSpec()
    kernel = GESpMMAggregation(adjacency, spec)
    rows: Dict[int, Dict[str, float]] = {}
    for dim in DIMENSIONS:
        cost = kernel.forward_cost((adjacency.num_rows, dim))
        rows[dim] = {
            "requests": cost.mem_requests,
            "transactions": cost.mem_transactions,
            "requests_per_nnz": cost.mem_requests / max(1, adjacency.nnz),
            "transactions_per_nnz": cost.mem_transactions / max(1, adjacency.nnz),
        }
    return rows


def format_result(rows: Dict[int, Dict[str, float]]) -> str:
    headers = ["feature dim", "#requests", "#transactions", "req/nnz", "txn/nnz"]
    table_rows = [
        [dim, row["requests"], row["transactions"], row["requests_per_nnz"], row["transactions_per_nnz"]]
        for dim, row in sorted(rows.items())
    ]
    return format_table(headers, table_rows, float_fmt="{:.2f}")
