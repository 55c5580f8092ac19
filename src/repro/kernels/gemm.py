"""Update-phase GEMM with locality-optimized weight reuse (§4.2, ❹ in Fig. 6).

The GCN update multiplies aggregated features ``(N, F_in)`` by the weight
``(F_in, F_out)``.  Without reuse, every snapshot's GEMM re-stages the weight
tiles from global memory block by block; PiPAD keeps one weight tile resident
in shared memory and sweeps the features of *all* snapshots in the partition
before moving to the next tile, so the weight traffic is paid once per
partition instead of once per snapshot.  This module provides both the
autograd op (:func:`update_gemm`) used by the parallel GNN executor and the
pure cost estimator used for ablation benches.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.gpu.kernel_cost import CATEGORY_UPDATE, KernelCost
from repro.gpu.memory_model import FLOAT_BYTES, contiguous_bytes_cost
from repro.gpu.spec import GPUSpec
from repro.tensor.function import Function
from repro.tensor.tensor import Tensor

#: rows of the dense operand handled by one thread block of the tiled GEMM
_GEMM_BLOCK_ROWS = 64


# Every UpdateGEMM forward and backward asks for its cost, almost always with
# the same shapes; exact because the cost is a pure function of the key and
# KernelCost is frozen, so one shared object stands for every fresh build.
@lru_cache(maxsize=1024, typed=True)
def update_gemm_cost(
    num_rows: int,
    in_features: int,
    out_features: int,
    spec: GPUSpec,
    *,
    reuse_group: int = 1,
    scale: float = 1.0,
    direction: str = "fwd",
) -> KernelCost:
    """Cost of one snapshot's update GEMM inside a reuse group of ``reuse_group``.

    ``reuse_group = 1`` models the canonical per-snapshot GEMM; larger values
    amortize the weight-tile traffic across the group (PiPAD's weight reuse).
    """
    if reuse_group <= 0:
        raise ValueError("reuse_group must be > 0")
    rows = num_rows * scale
    flops = 2.0 * rows * in_features * out_features
    x_bytes = rows * in_features * FLOAT_BYTES
    out_bytes = rows * out_features * FLOAT_BYTES
    num_blocks = max(1, int(np.ceil(rows / _GEMM_BLOCK_ROWS)))
    # Each block stages the weight tile from global memory; with reuse the
    # staging is shared by all snapshots of the group.
    weight_bytes = num_blocks * in_features * out_features * FLOAT_BYTES / reuse_group
    access = contiguous_bytes_cost(x_bytes + weight_bytes + out_bytes, spec)
    return KernelCost(
        name=f"update_gemm_{direction}",
        category=CATEGORY_UPDATE,
        flops=flops if direction == "fwd" else 2.0 * flops,
        global_read_bytes=x_bytes + weight_bytes,
        global_write_bytes=out_bytes,
        mem_requests=access.requests,
        mem_transactions=access.transactions,
        active_thread_ratio=1.0,
        num_blocks=num_blocks,
        shared_mem_bytes=in_features * out_features * FLOAT_BYTES,
        launches=1 if direction == "fwd" else 2,
    )


class UpdateGEMM(Function):
    """``y = x @ W + b`` with an explicit weight-reuse-aware cost."""

    op_name = "update_gemm"

    def forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        reuse_group: int,
        spec: GPUSpec,
        scale: float,
    ) -> np.ndarray:
        self.x, self.weight, self.has_bias = x, weight, bias is not None
        self.reuse_group, self.spec, self.scale = reuse_group, spec, scale
        self.extra_attrs = {
            "kernel_cost": update_gemm_cost(
                x.shape[0],
                weight.shape[0],
                weight.shape[1],
                spec,
                reuse_group=reuse_group,
                scale=scale,
                direction="fwd",
            ),
            "scope": "update",
        }
        out = x @ weight
        if bias is not None:
            out = out + bias
        return out

    def backward(self, grad: np.ndarray):
        self.extra_attrs = {
            "kernel_cost": update_gemm_cost(
                self.x.shape[0],
                self.weight.shape[0],
                self.weight.shape[1],
                self.spec,
                reuse_group=self.reuse_group,
                scale=self.scale,
                direction="bwd",
            ),
            "scope": "update",
        }
        grad_x = grad @ self.weight.T
        grad_w = self.x.T @ grad
        grad_b = grad.sum(axis=0) if self.has_bias else None
        return grad_x, grad_w, grad_b, None, None, None


def update_gemm(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    *,
    reuse_group: int = 1,
    spec: Optional[GPUSpec] = None,
    scale: float = 1.0,
) -> Tensor:
    """Differentiable update GEMM with weight-reuse-aware cost accounting."""
    return UpdateGEMM.apply(x, weight, bias, reuse_group, spec or GPUSpec(), scale)
