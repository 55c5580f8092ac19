"""Fig. 12: load-balance analysis and end-to-end effect of the sliced CSR."""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.api.engine import Engine
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    load_experiment_graph,
    method_spec,
)
from repro.gpu.load_balance import sliced_vs_csr_balance
from repro.graph.datasets import get_dataset_spec


def run(config: Optional[ExperimentConfig] = None) -> Dict[str, Dict[str, float]]:
    """Per-dataset load-balance improvement and end-to-end sliced-CSR speedup.

    The load-balance half compares the Balanced/Actual gap of the CSR and
    sliced-CSR work mappings; the end-to-end half trains PiPAD twice (sliced
    CSR on/off) on the first configured model and reports the speedup.
    """
    config = config or ExperimentConfig()
    model = config.models[0]
    rows: Dict[str, Dict[str, float]] = {}
    for dataset in config.datasets:
        graph = load_experiment_graph(dataset, config)
        spec_ds = get_dataset_spec(dataset)
        scale = max(1.0, spec_ds.paper.num_nodes / spec_ds.config.num_nodes)
        balance = sliced_vs_csr_balance(graph, scale=scale)

        sliced_spec = method_spec("pipad", model, config, dataset=dataset)
        sliced_result = Engine.from_spec(sliced_spec, graph=graph).train()
        csr_spec = sliced_spec.replace(
            pipad=dataclasses.replace(sliced_spec.pipad, use_sliced_csr=False)
        )
        csr_result = Engine.from_spec(csr_spec, graph=graph).train()
        rows[dataset] = {
            **balance,
            "end_to_end_speedup": csr_result.steady_epoch_seconds
            / max(sliced_result.steady_epoch_seconds, 1e-12),
        }
    return rows


def format_result(rows: Dict[str, Dict[str, float]]) -> str:
    headers = ["dataset", "CSR actual/balanced", "sliced actual/balanced",
               "balance improvement", "end-to-end speedup"]
    body = [
        [
            name,
            row["csr_imbalance"],
            row["sliced_imbalance"],
            row["improvement"],
            row["end_to_end_speedup"],
        ]
        for name, row in rows.items()
    ]
    return format_table(headers, body)
