"""Minimal reverse-mode autograd tensor library over NumPy.

Stands in for PyTorch in this reproduction: it provides the dense/sparse
differentiable operations the DGNN models need, plus an op-observer hook the
simulated GPU uses to charge kernel costs for every executed operation.

Gradient ownership: ``Tensor.backward`` treats every ``.grad`` array as
immutable, except the buffers it allocated during the current call, into
which it adds later contributions in place.  An intermediate tensor's
``.grad`` may share memory with another tensor's; a leaf's (e.g. a
``Parameter``'s) never does.  Optimizers and other callers must replace
``.grad``, never write into it; :class:`SGD` and :class:`Adam` comply.
"""

from repro.tensor.tensor import Tensor
from repro.tensor.function import (
    Function,
    OpEvent,
    current_scope,
    get_op_observer,
    is_grad_enabled,
    no_grad,
    observe_ops,
    op_scope,
    set_op_observer,
    unbroadcast,
)
from repro.tensor import ops
from repro.tensor.sparse import AggregationKernel, spmm
from repro.tensor import nn
from repro.tensor.optim import SGD, Adam, Optimizer

__all__ = [
    "Tensor",
    "Function",
    "OpEvent",
    "current_scope",
    "op_scope",
    "get_op_observer",
    "is_grad_enabled",
    "no_grad",
    "observe_ops",
    "set_op_observer",
    "unbroadcast",
    "ops",
    "AggregationKernel",
    "spmm",
    "nn",
    "SGD",
    "Adam",
    "Optimizer",
]
