"""Kernel registry: look up aggregation-kernel families by name."""

from __future__ import annotations

from typing import Dict, Type

from repro.kernels.base import BaseAggregationKernel
from repro.kernels.spmm_coo import PyGCOOAggregation
from repro.kernels.spmm_csr import GESpMMAggregation
from repro.kernels.spmm_sliced import SlicedParallelAggregation

#: registry of aggregation-kernel families keyed by the name used in configs
AGGREGATION_KERNELS: Dict[str, Type[BaseAggregationKernel]] = {
    "coo": PyGCOOAggregation,
    "pyg": PyGCOOAggregation,
    "gespmm": GESpMMAggregation,
    "csr": GESpMMAggregation,
    "sliced": SlicedParallelAggregation,
    "pipad": SlicedParallelAggregation,
}


def get_aggregation_kernel(name: str) -> Type[BaseAggregationKernel]:
    """Resolve an aggregation-kernel class by (case-insensitive) name."""
    key = name.lower()
    if key not in AGGREGATION_KERNELS:
        raise KeyError(
            f"unknown aggregation kernel {name!r}; available: {sorted(set(AGGREGATION_KERNELS))}"
        )
    return AGGREGATION_KERNELS[key]
