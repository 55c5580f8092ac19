"""DGNN models (MPNN-LSTM, EvolveGCN, T-GCN) and the aggregation provider."""

from __future__ import annotations

from typing import Dict, List, Type

from repro.nn.aggregation import (
    AggregationCache,
    AggregationProvider,
    DictAggregationCache,
    SnapshotKernels,
    mean_inverse_degree,
)
from repro.nn.base_model import DGNNModel, ModelState
from repro.nn.context import ExecutionContext
from repro.nn.gcn import GCNUpdate
from repro.nn.mpnn_lstm import MPNNLSTM
from repro.nn.evolvegcn import EvolveGCN
from repro.nn.tgcn import TGCN
from repro.utils.rng import SeedLike

#: registry of model classes by canonical name
MODEL_REGISTRY: Dict[str, Type[DGNNModel]] = {
    MPNNLSTM.name: MPNNLSTM,
    EvolveGCN.name: EvolveGCN,
    TGCN.name: TGCN,
}

#: figure order used throughout the paper's evaluation
MODEL_ORDER: List[str] = ["evolvegcn", "mpnn_lstm", "tgcn"]


def build_model(
    name: str,
    in_features: int,
    hidden_features: int,
    out_features: int = 1,
    seed: SeedLike = 0,
) -> DGNNModel:
    """Instantiate a DGNN model by name."""
    key = name.lower().replace("-", "_")
    if key not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[key](in_features, hidden_features, out_features, seed=seed)


__all__ = [
    "AggregationCache",
    "AggregationProvider",
    "DictAggregationCache",
    "SnapshotKernels",
    "mean_inverse_degree",
    "DGNNModel",
    "ModelState",
    "ExecutionContext",
    "GCNUpdate",
    "MPNNLSTM",
    "EvolveGCN",
    "TGCN",
    "MODEL_REGISTRY",
    "MODEL_ORDER",
    "build_model",
]
