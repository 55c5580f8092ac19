"""§4.1 space overhead: COO vs CSR vs sliced CSR storage footprint."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.experiments.common import ExperimentConfig, format_table, load_experiment_graph
from repro.graph.stats import format_sizes


def run(config: Optional[ExperimentConfig] = None) -> Dict[str, Dict[str, float]]:
    """Average per-snapshot storage of each format for every dataset."""
    config = config or ExperimentConfig()
    rows: Dict[str, Dict[str, float]] = {}
    for dataset in config.datasets:
        graph = load_experiment_graph(dataset, config)
        sizes = [format_sizes(s.adjacency) for s in graph.snapshots]
        coo = float(np.mean([s["coo_bytes"] for s in sizes]))
        csr = float(np.mean([s["csr_bytes"] for s in sizes]))
        sliced = float(np.mean([s["sliced_csr_bytes"] for s in sizes]))
        rows[dataset] = {
            "coo_bytes": coo,
            "csr_bytes": csr,
            "sliced_csr_bytes": sliced,
            "sliced_over_csr": sliced / csr if csr else 1.0,
            "sliced_over_coo": sliced / coo if coo else 1.0,
        }
    return rows


def format_result(rows: Dict[str, Dict[str, float]]) -> str:
    headers = ["dataset", "COO bytes", "CSR bytes", "sliced bytes", "sliced/CSR", "sliced/COO"]
    body = [
        [name, row["coo_bytes"], row["csr_bytes"], row["sliced_csr_bytes"],
         row["sliced_over_csr"], row["sliced_over_coo"]]
        for name, row in rows.items()
    ]
    return format_table(headers, body, float_fmt="{:.2f}")
