"""Computational kernels: aggregation (SpMM flavours) and update GEMM.

Every kernel computes exact numerics with NumPy/SciPy and independently
reports a :class:`~repro.gpu.kernel_cost.KernelCost` describing what the same
operation costs on the simulated GPU, so baselines and PiPAD produce
identical values while exhibiting the paper's performance differences.
"""

from repro.kernels.base import BaseAggregationKernel
from repro.kernels.spmm_coo import PyGCOOAggregation
from repro.kernels.spmm_csr import GESpMMAggregation
from repro.kernels.spmm_sliced import SlicedParallelAggregation
from repro.kernels.gemm import UpdateGEMM, update_gemm, update_gemm_cost

__all__ = [
    "BaseAggregationKernel",
    "PyGCOOAggregation",
    "GESpMMAggregation",
    "SlicedParallelAggregation",
    "UpdateGEMM",
    "update_gemm",
    "update_gemm_cost",
]
