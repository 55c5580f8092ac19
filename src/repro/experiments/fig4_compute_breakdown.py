"""Fig. 4: breakdown of GPU computation time (GNN vs RNN vs other)."""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    load_experiment_graph,
    run_method,
)


def run(config: Optional[ExperimentConfig] = None) -> Dict[str, Dict[str, float]]:
    """GNN/RNN/other computation-time fractions under the PyGT baseline."""
    config = config or ExperimentConfig()
    rows: Dict[str, Dict[str, float]] = {}
    for dataset in config.datasets:
        graph = load_experiment_graph(dataset, config)
        for model in config.models:
            result = run_method("pygt", graph, model, config)
            # GNN = aggregation + update GEMMs; RNN = the LSTM/GRU gates;
            # other = readout, losses and the optimizer.
            seconds = result.category_seconds
            parts = {
                "gnn": seconds.get("aggregation", 0.0) + seconds.get("update", 0.0),
                "rnn": seconds.get("rnn", 0.0),
                "other": seconds.get("elementwise", 0.0) + seconds.get("other", 0.0),
            }
            rows[f"{model}/{dataset}"] = {
                f"{k}_fraction": v / sum(parts.values()) for k, v in parts.items()
            }
    return rows


def format_result(rows: Dict[str, Dict[str, float]]) -> str:
    headers = ["model/dataset", "GNN %", "RNN %", "other %"]
    table_rows = [
        [key, row["gnn_fraction"] * 100, row["rnn_fraction"] * 100, row["other_fraction"] * 100]
        for key, row in rows.items()
    ]
    return format_table(headers, table_rows, float_fmt="{:.1f}")
