"""Fig. 9: offline analysis of the parallel GNN.

(a) speedup of different ``S_per`` settings over one-snapshot execution as
    the group overlap rate changes;
(b) normalized speedup as the feature dimension changes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.tuner import OfflineAnalysis
from repro.experiments.common import ExperimentConfig, format_table
from repro.gpu.spec import GPUSpec

S_PER_VALUES = (2, 4, 8)
OVERLAP_RATES = (0.1, 0.3, 0.5, 0.7, 0.9)
DIMENSIONS = (2, 8, 16, 32, 64)


def run(config: Optional[ExperimentConfig] = None) -> Dict[str, Dict[Tuple[int, object], float]]:
    """Compute both Fig. 9 panels from the offline cost-model analysis."""
    config = config or ExperimentConfig()
    analysis = OfflineAnalysis(spec=GPUSpec(), num_nodes=1024, avg_degree=4.0, seed=config.seed)
    return {
        "speedup_vs_overlap": analysis.speedup_table(S_PER_VALUES, OVERLAP_RATES, feature_dim=16),
        "speedup_vs_dimension": analysis.dimension_table(S_PER_VALUES, DIMENSIONS, overlap_rate=0.8),
    }


def format_result(rows: Dict[str, Dict[Tuple[int, object], float]]) -> str:
    sections = []
    for title, key_name in (
        ("Fig. 9(a) — speedup vs overlap rate", "speedup_vs_overlap"),
        ("Fig. 9(b) — speedup vs feature dimension", "speedup_vs_dimension"),
    ):
        table = rows[key_name]
        s_values = sorted({k[0] for k in table})
        x_values = sorted({k[1] for k in table})
        headers = ["x"] + [f"S_per={s}" for s in s_values]
        body = [[x] + [table[(s, x)] for s in s_values] for x in x_values]
        sections.append(title + "\n" + format_table(headers, body, float_fmt="{:.2f}"))
    return "\n\n".join(sections)
