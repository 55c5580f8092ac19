"""Autograd machinery: differentiable functions, gradient mode, op observer.

The engine is a small reverse-mode autodiff over NumPy arrays.  Every
differentiable operation subclasses :class:`Function`; calling
``SomeOp.apply(...)`` runs the forward numerics and, when gradients are
enabled, links the output tensor back to the function so
:meth:`repro.tensor.tensor.Tensor.backward` can replay the chain rule.

A process-wide *op observer* can be installed (see :func:`observe_ops`) to
receive an :class:`OpEvent` for every forward and backward execution.  The
simulated GPU uses this hook to charge kernel costs for the exact sequence of
operations a model executes, without the model code knowing about the device.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# gradient mode
# ---------------------------------------------------------------------------
_grad_enabled: bool = True


def is_grad_enabled() -> bool:
    """Whether newly created tensors will record the autograd graph."""
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


# ---------------------------------------------------------------------------
# op observer
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OpEvent:
    """A single executed operation, reported to the installed observer.

    Attributes
    ----------
    name:
        Operation name (e.g. ``"matmul"``, ``"sigmoid"``, ``"spmm"``).
    phase:
        ``"forward"`` or ``"backward"``.
    input_shapes, output_shapes:
        Shapes of the array operands involved.
    attrs:
        Operation-specific extras.  Kernels that know their own hardware cost
        (the SpMM flavours, the weight-reuse GEMM) put a pre-built
        ``KernelCost`` under ``attrs["kernel_cost"]``; generic dense ops leave
        it to the observer to estimate.
    """

    name: str
    phase: str
    input_shapes: Tuple[Tuple[int, ...], ...]
    output_shapes: Tuple[Tuple[int, ...], ...]
    attrs: Dict[str, Any] = field(default_factory=dict)


OpObserver = Callable[[OpEvent], None]

_observer: Optional[OpObserver] = None

# ---------------------------------------------------------------------------
# op scopes — lightweight tags ("update", "rnn", ...) that model code pushes
# around blocks of operations so the cost observer can attribute generic
# dense ops to the right breakdown category (Fig. 4).
# ---------------------------------------------------------------------------
_scope_stack: List[str] = []


def current_scope() -> str:
    """The innermost active op scope, or ``"other"`` when none is set."""
    return _scope_stack[-1] if _scope_stack else "other"


@contextlib.contextmanager
def op_scope(name: str):
    """Tag all operations executed in the block with ``name``."""
    _scope_stack.append(name)
    try:
        yield
    finally:
        _scope_stack.pop()


def set_op_observer(observer: Optional[OpObserver]) -> None:
    """Install (or clear, with ``None``) the process-wide op observer."""
    global _observer
    _observer = observer


def get_op_observer() -> Optional[OpObserver]:
    return _observer


@contextlib.contextmanager
def observe_ops(observer: OpObserver):
    """Temporarily install ``observer``, restoring the previous one after."""
    global _observer
    previous = _observer
    _observer = observer
    try:
        yield observer
    finally:
        _observer = previous


def emit_event(event: OpEvent) -> None:
    """Send an event to the installed observer, if any."""
    if _observer is not None:
        _observer(event)


# ---------------------------------------------------------------------------
# broadcasting helper
# ---------------------------------------------------------------------------
def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class SliceGrad:
    """A gradient that is zero except at ``index``, where it equals ``values``.

    :class:`~repro.tensor.ops.GetItem` returns one for a basic index (ints,
    slices, ``None``, ``Ellipsis``) instead of scattering into a parent-sized
    array.  A basic index never names one element twice, so adding
    ``values`` at ``index`` gives the same bits as ``np.add.at``.  ``shape``
    is the parent's, which is what the backward :class:`OpEvent` reports.
    """

    __slots__ = ("shape", "index", "values")

    def __init__(self, shape: Tuple[int, ...], index: Any, values: np.ndarray) -> None:
        self.shape, self.index, self.values = shape, index, values

    def materialize(self) -> np.ndarray:
        """The dense, parent-shaped gradient."""
        # ``+=``, not ``=``: like np.add.at it stores 0.0 + v, +0.0 for -0.0.
        full = np.zeros(self.shape, dtype=np.float32)
        full[self.index] += self.values
        return full


# ---------------------------------------------------------------------------
# Function base class
# ---------------------------------------------------------------------------
class Function:
    """Base class for differentiable operations.

    Subclasses implement :meth:`forward` (NumPy in, NumPy out, may stash
    arrays on ``self`` for the backward pass) and :meth:`backward` (gradient
    of the output in, one gradient per positional input out — an array, a
    :class:`SliceGrad`, or ``None`` for inputs that are not tensors or do
    not need gradients).  ``backward`` must not write into the gradient it
    is given: that array may be shared (see :meth:`Tensor.backward`).
    """

    #: name reported in OpEvents; defaults to the lower-cased class name
    op_name: str = ""

    def __init__(self) -> None:
        self.inputs: Tuple[Any, ...] = ()
        self.extra_attrs: Dict[str, Any] = {}
        self.scope: str = "other"

    # -- to be implemented by subclasses -----------------------------------
    def forward(self, *args: Any, **kwargs: Any) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        raise NotImplementedError

    # -- engine machinery ---------------------------------------------------
    @classmethod
    def apply(cls, *args: Any, **kwargs: Any) -> "Tensor":
        from repro.tensor.tensor import Tensor

        fn = cls()
        fn.scope = current_scope()
        raw_args = [a.data if isinstance(a, Tensor) else a for a in args]
        out_data = fn.forward(*raw_args, **kwargs)
        out_data = np.asarray(out_data, dtype=np.float32)

        tensor_inputs = [a for a in args if isinstance(a, Tensor)]
        requires_grad = is_grad_enabled() and any(t.requires_grad for t in tensor_inputs)
        out = Tensor(out_data, requires_grad=requires_grad)
        if requires_grad:
            fn.inputs = tuple(args)
            out._ctx = fn

        attrs = dict(fn.extra_attrs)
        attrs.setdefault("scope", fn.scope)
        emit_event(
            OpEvent(
                name=fn.op_name or cls.__name__.lower(),
                phase="forward",
                input_shapes=tuple(
                    tuple(a.shape) for a in args if isinstance(a, (Tensor, np.ndarray))
                ),
                output_shapes=(tuple(out_data.shape),),
                attrs=attrs,
            )
        )
        return out

    def run_backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        """Execute the backward pass and report it to the observer."""
        grads = self.backward(grad)
        attrs = dict(self.extra_attrs)
        attrs.setdefault("scope", self.scope)
        emit_event(
            OpEvent(
                name=self.op_name or type(self).__name__.lower(),
                phase="backward",
                input_shapes=(tuple(grad.shape),),
                output_shapes=tuple(tuple(g.shape) for g in grads if g is not None),
                attrs=attrs,
            )
        )
        return grads
