"""Ablation experiments for the design choices called out in DESIGN.md.

Each ablation trains PiPAD with one optimization disabled (or a parameter
fixed) and reports the slowdown relative to the full configuration; this is
the per-mechanism evidence backing the end-to-end Fig. 10 numbers.
"""

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

#: named ablations as PiPADConfig overrides ({} means "the full default"),
#: applied through the RunSpec ``pipad`` section
ABLATIONS: Dict[str, Dict[str, object]] = {
    "full": {},
    "no_reuse": {"enable_inter_frame_reuse": False},
    "no_weight_reuse": {"enable_weight_reuse": False},
    "no_pipeline": {"enable_pipeline": False},
    "no_cuda_graph": {"use_cuda_graph": False},
    "plain_csr": {"use_sliced_csr": False},
    "fixed_s_per_2": {"fixed_s_per": 2},
}


def run(config: Optional[ExperimentConfig] = None) -> Dict[str, Dict[str, float]]:
    """Steady-state epoch time of each ablated PiPAD configuration (HepTh, T-GCN)."""
    config = config or ExperimentConfig()
    graph = load_experiment_graph("hepth", config)
    rows: Dict[str, Dict[str, float]] = {}
    baseline_seconds = None
    base_spec = method_spec("pipad", "tgcn", config, dataset="hepth")
    for name, overrides in ABLATIONS.items():
        spec = base_spec.replace(pipad=dataclasses.replace(base_spec.pipad, **overrides))
        result = Engine.from_spec(spec, graph=graph).train()
        seconds = result.steady_epoch_seconds
        if name == "full":
            baseline_seconds = seconds
        rows[name] = {"epoch_seconds": seconds}
    for name, row in rows.items():
        row["slowdown_vs_full"] = (
            row["epoch_seconds"] / baseline_seconds if baseline_seconds else 1.0
        )
    return rows


def format_result(rows: Dict[str, Dict[str, float]]) -> str:
    headers = ["configuration", "epoch seconds", "slowdown vs full"]
    body = [[name, row["epoch_seconds"], row["slowdown_vs_full"]] for name, row in rows.items()]
    return format_table(headers, body, float_fmt="{:.4f}")
