"""Fig. 3: latency breakdown and SM utilization of PyGT DGNN training."""

from __future__ import annotations

from typing import Dict, Optional

from repro.baselines.results import TrainingResult
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    load_experiment_graph,
    run_method,
)


def run(config: Optional[ExperimentConfig] = None) -> Dict[str, Dict[str, float]]:
    """Breakdown of PyGT training time per (model, dataset) combination."""
    config = config or ExperimentConfig()
    rows: Dict[str, Dict[str, float]] = {}
    for dataset in config.datasets:
        graph = load_experiment_graph(dataset, config)
        for model in config.models:
            result = run_method("pygt", graph, model, config)
            row = latency_fractions(result)
            row["sm_utilization"] = result.sm_utilization
            row["simulated_seconds"] = result.simulated_seconds
            rows[f"{model}/{dataset}"] = row
    return rows


def latency_fractions(result: TrainingResult) -> Dict[str, float]:
    """Shares of transfer, kernel and host time in one training run.

    The figure plots the GPU-related time, so the denominator is the sum of
    these three parts.
    """
    seconds = result.breakdown
    parts = {
        "transfer": seconds.get("h2d", 0.0) + seconds.get("d2h", 0.0),
        "compute": seconds.get("kernel", 0.0),
        "cpu": seconds.get("cpu", 0.0),
    }
    return {f"{k}_fraction": v / sum(parts.values()) for k, v in parts.items()}


def format_result(rows: Dict[str, Dict[str, float]]) -> str:
    headers = ["model/dataset", "transfer %", "compute %", "cpu %", "SM util %"]
    table_rows = [
        [
            key,
            row["transfer_fraction"] * 100,
            row["compute_fraction"] * 100,
            row["cpu_fraction"] * 100,
            row["sm_utilization"] * 100,
        ]
        for key, row in rows.items()
    ]
    return format_table(headers, table_rows, float_fmt="{:.1f}")
