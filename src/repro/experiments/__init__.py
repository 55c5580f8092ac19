"""Experiment harness: one module per table/figure of the paper's evaluation."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments import (
    ablations,
    fig3_breakdown,
    fig4_compute_breakdown,
    fig5_memory_requests,
    fig9_offline_analysis,
    fig10_overall_speedup,
    fig11_parallel_gnn,
    fig12_sliced_csr,
    format_space,
    scaling_multi_gpu,
    scaling_pipeline,
    table1_datasets,
    table2_gpu_utilization,
)
from repro.experiments.common import ExperimentConfig, format_table

#: experiment registry keyed by the paper artifact each one regenerates
EXPERIMENTS: Dict[str, object] = {
    "table1": table1_datasets,
    "fig3": fig3_breakdown,
    "fig4": fig4_compute_breakdown,
    "fig5": fig5_memory_requests,
    "fig9": fig9_offline_analysis,
    "fig10": fig10_overall_speedup,
    "table2": table2_gpu_utilization,
    "fig11": fig11_parallel_gnn,
    "fig12": fig12_sliced_csr,
    "space_overhead": format_space,
    "ablations": ablations,
    "scaling": scaling_multi_gpu,
    "scaling_pipeline": scaling_pipeline,
}


def list_experiments() -> List[str]:
    """Names of the available experiments (paper artifacts)."""
    return list(EXPERIMENTS)


def _experiment(name: str):
    if name.lower() not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name.lower()]


def run_experiment(name: str, config: Optional[ExperimentConfig] = None, **kwargs):
    """Run one experiment by name and return its rows."""
    return _experiment(name).run(config, **kwargs)


def format_experiment(name: str, rows) -> str:
    """Format an experiment's rows the way the paper presents them."""
    return _experiment(name).format_result(rows)


__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "format_experiment",
    "format_table",
    "list_experiments",
    "run_experiment",
]
