"""Fully connected layer."""

from __future__ import annotations


from repro.tensor.nn import init
from repro.tensor.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor
from repro.utils.rng import SeedLike


class Linear(Module):
    """``y = x @ W + b`` with ``W`` of shape ``(in_features, out_features)``.

    This is the "update" half of a GCN layer (paper §2.1) and the building
    block of every RNN gate.
    """

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

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Linear(in={self.in_features}, out={self.out_features})"
