"""Minimal reverse-mode autograd tensor library over NumPy.

Stands in for PyTorch in this reproduction: it provides the dense/sparse
differentiable operations the DGNN models need, plus an op-observer hook the
simulated GPU uses to charge kernel costs for every executed operation.

Gradient ownership: ``Tensor.backward`` treats every ``.grad`` array as
immutable, except the buffers it allocated during the current call, into
which it adds later contributions in place.  An intermediate tensor's
``.grad`` may share memory with another tensor's; a leaf's (e.g. a
``Parameter``'s) never does.  Optimizers and other callers must replace
``.grad``, never write into it; :class:`Adam` complies.
"""

from repro.tensor.tensor import Tensor
from repro.tensor.function import (
    Function,
    OpEvent,
    no_grad,
    observe_ops,
    op_scope,
    unbroadcast,
)
from repro.tensor import ops
from repro.tensor.sparse import AggregationKernel, spmm
from repro.tensor import nn
from repro.tensor.optim import Adam, Optimizer

__all__ = [
    "Tensor",
    "Function",
    "OpEvent",
    "op_scope",
    "no_grad",
    "observe_ops",
    "unbroadcast",
    "ops",
    "AggregationKernel",
    "spmm",
    "nn",
    "Adam",
    "Optimizer",
]
