"""Differentiable sparse–dense multiplication (the GNN aggregation op).

The heavy lifting — numerics *and* the hardware cost estimate — lives in an
*aggregation kernel* object supplied by :mod:`repro.kernels`.  This module
only adapts such a kernel into the autograd graph: the adjacency is a
constant (gradients flow to the dense features only, via ``A^T @ grad``), and
the kernel's cost estimates are attached to the emitted op events so the
simulated device can charge them.
"""

from __future__ import annotations

from typing import Protocol, Tuple

import numpy as np

from repro.tensor.function import Function
from repro.tensor.tensor import Tensor


class AggregationKernel(Protocol):
    """Interface the SpMM autograd op expects from an aggregation kernel."""

    name: str

    def forward(self, dense: np.ndarray) -> np.ndarray:
        """Compute ``A @ dense``."""

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Compute ``A^T @ grad``."""

    def forward_cost(self, dense_shape: Tuple[int, int]):
        """KernelCost of the forward aggregation for a dense operand shape."""

    def backward_cost(self, grad_shape: Tuple[int, int]):
        """KernelCost of the backward aggregation."""


class SpMM(Function):
    """``A @ X`` where ``A`` is a fixed sparse adjacency wrapped in a kernel."""

    op_name = "spmm"

    def forward(self, kernel: AggregationKernel, dense: np.ndarray) -> np.ndarray:
        self.kernel = kernel
        self.dense_shape = dense.shape
        self.extra_attrs = {
            "kernel": kernel.name,
            "kernel_cost": kernel.forward_cost(dense.shape),
        }
        return kernel.forward(dense)

    def backward(self, grad: np.ndarray):
        # Swap in the backward cost so the backward OpEvent is charged correctly.
        self.extra_attrs = {
            "kernel": self.kernel.name,
            "kernel_cost": self.kernel.backward_cost(grad.shape),
        }
        return None, self.kernel.backward(grad)


def spmm(kernel: AggregationKernel, dense: Tensor) -> Tensor:
    """Aggregate dense features through a sparse adjacency kernel."""
    return SpMM.apply(kernel, dense)
