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

Host cost per op
----------------
Most ops a DGNN model runs are tiny: EvolveGCN's weight GRU works on (2, 6)
and (6, 6) arrays, where NumPy needs well under 1 µs.  The engine's own
bookkeeping therefore sets what an op costs on the host, and each op pays it
once, on one short path:

- :meth:`Function.apply` makes one pass over the arguments (raw arrays,
  input shapes, whether any input needs a gradient).  A function keeps its
  defaults on the class, so building one builds no dict.
- A forward result that already is a C-contiguous float32 array with
  ndim >= 1 becomes the data of a tensor built directly, without the
  ``Tensor()`` call and its conversion; anything else goes through
  ``Tensor()``, which turns a 0-d result into shape ``(1,)``.
- An :class:`OpEvent` is a ``NamedTuple`` built positionally, and only while
  an observer is installed.  An op without extra attrs shares one read-only
  ``{"scope": ...}`` mapping per scope; one with extra attrs gets a copy.
- The :class:`~repro.gpu.profiler.KernelCostCollector` receiving it finds a
  generic op's cost in a memo it resolved once, when it was built.

On one 2-vCPU Xeon VM a (2, 2) ``ops.add`` under a collector takes about
5.3 µs (3.7–6.1 µs), against 10.3 µs (9.1–13.1 µs) when every op built a
dict, imported ``Tensor``, copied its attrs and built a frozen-dataclass
event, and the collector hashed the 15-field ``GPUSpec`` for its memo.
With a ``backward()`` through that op the figures are 14.2 µs (11.3–15.3)
and 21.3 µs (17.3–25.7).  Medians and ranges of seven alternating
processes, each the best of 15 rounds of 5,000 ops.
"""

from __future__ import annotations

import contextlib
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.tensor.tensor import Tensor

_FLOAT32 = np.dtype(np.float32)

# ---------------------------------------------------------------------------
# gradient mode
# ---------------------------------------------------------------------------
_grad_enabled: bool = True


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
#: the ``attrs`` of an event built without any
_NO_ATTRS: Mapping[str, Any] = MappingProxyType({})


class OpEvent(NamedTuple):
    """A single executed operation, reported to the installed observer.

    A ``NamedTuple``, like a :class:`~repro.gpu.timeline.TimelineOp` view:
    the engine builds one per executed op, positionally, and assigning a
    field raises ``AttributeError``.

    Attributes
    ----------
    name:
        Operation name (e.g. ``"matmul"``, ``"sigmoid"``, ``"spmm"``).
    phase:
        ``"forward"`` or ``"backward"``.
    input_shapes, output_shapes:
        Shapes of the array operands involved.
    attrs:
        Operation-specific extras; the engine always sets ``"scope"``.
        Observers must not write into it: events of one scope share it.
        Kernels that know their own hardware cost (the SpMM flavours, the
        weight-reuse GEMM) put a pre-built ``KernelCost`` under
        ``attrs["kernel_cost"]``; generic dense ops leave it to the
        observer to estimate.
    """

    name: str
    phase: str
    input_shapes: Tuple[Tuple[int, ...], ...]
    output_shapes: Tuple[Tuple[int, ...], ...]
    attrs: Mapping[str, Any] = _NO_ATTRS


OpObserver = Callable[[OpEvent], None]

_observer: Optional[OpObserver] = None

# ---------------------------------------------------------------------------
# op scopes — lightweight tags ("update", "rnn", ...) that model code pushes
# around blocks of operations so the cost observer can attribute generic
# dense ops to the right breakdown category (Fig. 4).
# ---------------------------------------------------------------------------
_scope_stack: List[str] = []


#: scope -> the read-only ``{"scope": scope}`` shared by every event whose
#: function sets no extra attrs
_SCOPE_ATTRS: Dict[str, Mapping[str, Any]] = {}


def _scope_attrs(scope: str) -> Mapping[str, Any]:
    attrs = _SCOPE_ATTRS.get(scope)
    if attrs is None:
        attrs = _SCOPE_ATTRS[scope] = MappingProxyType({"scope": scope})
    return attrs


@contextlib.contextmanager
def op_scope(name: str):
    """Tag all operations executed in the block with ``name``."""
    _scope_stack.append(name)
    try:
        yield
    finally:
        _scope_stack.pop()


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


# ---------------------------------------------------------------------------
# Function base class
# ---------------------------------------------------------------------------
class Function:
    """Base class for differentiable operations.

    Subclasses implement :meth:`forward` (NumPy in, NumPy out, may stash
    arrays on ``self`` for the backward pass) and :meth:`backward` (gradient
    of the output in, one gradient per positional input out — an array, a
    :class:`~repro.tensor.tensor.SliceGrad`, or ``None`` for inputs that are
    not tensors or do not need gradients).  ``backward`` must not write into
    the gradient it is given: that array may be shared (see
    :meth:`Tensor.backward`).  Either may set :attr:`extra_attrs` for the
    event that reports it.
    """

    #: name reported in OpEvents; defaults to the lower-cased class name
    op_name: str = ""
    #: the positional arguments of the forward call, kept only when the
    #: output records the graph (the backward pass walks them)
    inputs: Tuple[Any, ...] = ()
    #: extra event attributes (e.g. an explicit ``kernel_cost``); an
    #: instance sets its own dict, never mutates this shared default
    extra_attrs: Optional[Dict[str, Any]] = None
    #: op scope active when the forward ran (see :func:`op_scope`)
    scope: str = "other"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.op_name:
            cls.op_name = cls.__name__.lower()

    # -- to be implemented by subclasses -----------------------------------
    def forward(self, *args: Any, **kwargs: Any) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        raise NotImplementedError

    # -- engine machinery ---------------------------------------------------
    def _event_attrs(self) -> Mapping[str, Any]:
        """The event's ``attrs``: the extra attrs plus ``"scope"`` (which
        an extra ``"scope"`` overrides)."""
        extra = self.extra_attrs
        if not extra:
            return _scope_attrs(self.scope)
        attrs = dict(extra)
        attrs.setdefault("scope", self.scope)
        return attrs

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any) -> Tensor:
        fn = cls()
        fn.scope = _scope_stack[-1] if _scope_stack else "other"
        raw_args = []
        input_shapes = []
        requires_grad = False
        for arg in args:
            if isinstance(arg, Tensor):
                data = arg.data
                raw_args.append(data)
                input_shapes.append(data.shape)
                requires_grad = requires_grad or arg.requires_grad
            else:
                raw_args.append(arg)
                if isinstance(arg, np.ndarray):
                    input_shapes.append(arg.shape)
        out_data = fn.forward(*raw_args, **kwargs)
        requires_grad = requires_grad and _grad_enabled
        if (
            type(out_data) is np.ndarray
            and out_data.dtype is _FLOAT32
            and out_data.ndim
            and out_data.flags.c_contiguous
        ):
            # The array Tensor() would store: build the tensor directly.
            out = object.__new__(Tensor)
            out.data, out.requires_grad, out.grad, out._ctx, out.name = (
                out_data, requires_grad, None, None, ""
            )
        else:
            out_data = np.asarray(out_data, dtype=np.float32)
            out = Tensor(out_data, requires_grad=requires_grad)
        if requires_grad:
            fn.inputs = args
            out._ctx = fn

        # The event reports the shape ``forward`` returned: () for a 0-d
        # result, which the Tensor stores as (1,).
        observer = _observer
        if observer is not None:
            observer(
                OpEvent(
                    cls.op_name,
                    "forward",
                    tuple(input_shapes),
                    (out_data.shape,),
                    fn._event_attrs(),
                )
            )
        return out

    def run_backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        """Execute the backward pass and report it to the observer."""
        grads = self.backward(grad)
        observer = _observer
        if observer is not None:
            observer(
                OpEvent(
                    self.op_name,
                    "backward",
                    (grad.shape,),
                    tuple([g.shape for g in grads if g is not None]),
                    self._event_attrs(),
                )
            )
        return grads
