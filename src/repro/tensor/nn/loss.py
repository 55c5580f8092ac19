"""Loss functions."""

from __future__ import annotations

from repro.tensor import ops
from repro.tensor.tensor import Tensor


def _check_same_shape(prediction: Tensor, target: Tensor) -> None:
    if prediction.shape != target.shape:
        raise ValueError(
            f"prediction shape {prediction.shape} does not match target shape {target.shape}"
        )


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    _check_same_shape(prediction, target)
    diff = prediction - target
    return ops.mean(diff * diff)
