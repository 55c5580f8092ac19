"""Base class shared by the aggregation kernels.

An aggregation kernel owns one sparse adjacency, performs the actual
``A @ X`` / ``A^T @ dY`` numerics with SciPy, and — independently — estimates
what the same operation costs on the simulated GPU.  Subclasses implement
only the cost estimate; the numerics are identical across kernels (that is
the point: PyG, GE-SpMM and PiPAD's parallel kernel compute the same values,
they differ in memory behaviour).

A kernel's adjacency, spec and scale are fixed at construction, so its cost
depends only on the dense operand's width and the direction: each
``(feature_dim, direction)`` cost is built once and returned from then on.
Kernels that live across frames and epochs (PiPAD's partition kernels, the
baselines' per-snapshot kernels) thus pay the load-balance analysis once.
Construction itself only stores the adjacency: the SciPy matrix the numerics
run on is built by the first ``forward``/``backward`` (or by a backward cost,
which reads the transpose), and a subclass's cost-side structures by the
first cost, so a kernel asked only for forward costs (the offline analysis)
never holds SciPy's int32 index copies.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRMatrix
from repro.gpu.kernel_cost import KernelCost
from repro.gpu.spec import GPUSpec


class BaseAggregationKernel:
    """Common numerics and bookkeeping for aggregation kernels.

    Parameters
    ----------
    adjacency:
        The sparse operand (unnormalized adjacency or any CSR matrix).
    spec:
        Simulated GPU spec used by the cost estimators.
    scale:
        Workload-extrapolation factor applied to extensive cost quantities
        (see ``repro.gpu.profiler`` for the rationale).
    """

    #: kernel family name, overridden by subclasses
    name = "aggregation"

    def __init__(self, adjacency: CSRMatrix, spec: Optional[GPUSpec] = None, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("scale must be > 0")
        self.adjacency = adjacency
        self.spec = spec or GPUSpec()
        self.scale = float(scale)
        self._costs: Dict[Tuple[int, str], KernelCost] = {}

    # -- numerics ------------------------------------------------------------
    def forward(self, dense: np.ndarray) -> np.ndarray:
        """Compute ``A @ dense``."""
        dense = np.asarray(dense, dtype=np.float32)
        if dense.shape[0] != self.adjacency.num_cols:
            raise ValueError(
                f"dense rows ({dense.shape[0]}) must match adjacency cols ({self.adjacency.num_cols})"
            )
        return np.asarray(self._forward_mat @ dense, dtype=np.float32)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Compute ``A^T @ grad`` (gradient w.r.t. the dense operand)."""
        grad = np.asarray(grad, dtype=np.float32)
        return np.asarray(self._backward_mat @ grad, dtype=np.float32)

    @cached_property
    def _forward_mat(self) -> sp.csr_matrix:
        """``A`` as a SciPy CSR, built on the first forward or backward pass."""
        return self.adjacency.to_scipy()

    @cached_property
    def _backward_mat(self) -> sp.csr_matrix:
        """``A^T`` in CSR, built on first use and kept."""
        return self._forward_mat.T.tocsr()

    # -- cost ------------------------------------------------------------------
    def forward_cost(self, dense_shape: Tuple[int, int]) -> KernelCost:
        """Cost of the forward aggregation ``A @ X``."""
        return self._cost(self._feature_dim(dense_shape), "fwd")

    def backward_cost(self, grad_shape: Tuple[int, int]) -> KernelCost:
        """Cost of the backward aggregation ``A^T @ dY``."""
        return self._cost(self._feature_dim(grad_shape), "bwd")

    def _cost(self, feature_dim: int, direction: str) -> KernelCost:
        key = (feature_dim, direction)
        cost = self._costs.get(key)
        if cost is None:
            cost = self._costs[key] = self._build_cost(feature_dim, direction)
        return cost

    def _build_cost(self, feature_dim: int, direction: str) -> KernelCost:
        """Cost of one aggregation over ``feature_dim`` columns in
        ``direction`` (``"fwd"`` or ``"bwd"``); implemented by subclasses."""
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self.adjacency.nnz

    @property
    def num_rows(self) -> int:
        return self.adjacency.num_rows

    def _feature_dim(self, dense_shape: Tuple[int, int]) -> int:
        if len(dense_shape) != 2:
            raise ValueError(f"dense operand must be 2-D, got shape {dense_shape}")
        return int(dense_shape[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(nnz={self.nnz}, rows={self.num_rows}, scale={self.scale})"
