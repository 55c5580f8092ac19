"""Neural-network building blocks over the autograd tensor."""

from repro.tensor.nn.module import Module, Parameter
from repro.tensor.nn.linear import Linear
from repro.tensor.nn.rnn_cells import GRUCell, LSTMCell
from repro.tensor.nn.loss import (
    mse_loss,
)
from repro.tensor.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "GRUCell",
    "LSTMCell",
    "mse_loss",
    "init",
]
