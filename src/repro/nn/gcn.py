"""GCN update module (the dense half of a GCN layer).

The aggregation half is performed by the
:class:`~repro.nn.aggregation.AggregationProvider`; :class:`GCNUpdate`
applies the fully connected transformation to aggregated features via the
weight-reuse-aware :func:`repro.kernels.gemm.update_gemm` kernel so the cost
model can distinguish one-snapshot updates from PiPAD's grouped updates.
"""

from __future__ import annotations

from typing import Optional

from repro.kernels.gemm import update_gemm
from repro.nn.context import ExecutionContext
from repro.tensor.nn import init
from repro.tensor.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor
from repro.utils.rng import SeedLike


class GCNUpdate(Module):
    """``h = agg @ W + b`` with weight-reuse-aware cost accounting."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((in_features, out_features), seed=seed), name="weight"
        )
        self.bias = Parameter(init.zeros(out_features), name="bias")

    def forward(self, aggregated: Tensor, ctx: Optional[ExecutionContext] = None) -> Tensor:
        ctx = ctx or ExecutionContext()
        return update_gemm(
            aggregated,
            self.weight,
            self.bias,
            reuse_group=ctx.weight_reuse_group,
            spec=ctx.spec,
            scale=ctx.scale,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"GCNUpdate(in={self.in_features}, out={self.out_features})"
