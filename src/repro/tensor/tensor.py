"""The :class:`Tensor` class: a NumPy array with reverse-mode autograd.

This module imports nothing from :mod:`repro.tensor.function` at run time,
so ``Function.apply`` can import :class:`Tensor` once, at module level.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:
    from repro.tensor.function import Function

ArrayLike = Union[np.ndarray, float, int, Sequence]


class SliceGrad:
    """A gradient that is zero except at ``index``, where it equals ``values``.

    :class:`~repro.tensor.ops.GetItem` returns one for a basic index (ints,
    slices, ``None``, ``Ellipsis``) instead of scattering into a parent-sized
    array.  A basic index never names one element twice, so adding
    ``values`` at ``index`` gives the same bits as ``np.add.at``.  ``shape``
    is the parent's, which is what the backward
    :class:`~repro.tensor.function.OpEvent` reports.
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


class Tensor:
    """A dense float32 tensor participating in the autograd graph.

    Parameters
    ----------
    data:
        Array-like payload; always stored as a C-contiguous float32 array.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_ctx", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = "") -> None:
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float32))
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._ctx: Optional[Function] = None
        self.name = name

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        from repro.tensor import ops

        return ops.transpose(self)

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    # -- autograd -------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Gradient ownership: a ``.grad`` array is immutable once set, except
        for a buffer this call allocated itself, which it adds later
        contributions into in place.  An intermediate tensor (one with a
        recorded op) takes its first dense contribution by reference, so its
        ``.grad`` may share memory with ``grad``, another tensor's gradient
        or an array an op's backward returned.  A leaf (e.g. a ``Parameter``)
        always gets a buffer of its own.  Code outside the engine, optimizers
        included, must replace ``.grad`` rather than write into it.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to ones (so calling ``backward()`` on a
            scalar loss computes ordinary gradients).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float32)
        if grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match tensor {self.data.shape}")

        # Iterative post-order DFS (avoids recursion limits on long RNN chains).
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if node._ctx is None:
                continue
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._ctx.inputs:
                if (
                    isinstance(parent, Tensor)
                    and parent._ctx is not None
                    and id(parent) not in visited
                ):
                    stack.append((parent, False))

        if self.grad is not None:
            self.grad = self.grad + grad
        else:
            self.grad = grad if self._ctx is not None else grad.copy()
        # id(tensor) -> True while the buffer this call allocated for the
        # tensor's gradient holds slice gradients only, False once a dense
        # contribution has touched it.  Adding a slice in place skips the
        # `+ 0.0` the materialized slice adds elsewhere, which changes only
        # a -0.0; a buffer built from zeros by slices alone never holds one
        # (x + y is -0.0 only when both are).
        owned: Dict[int, bool] = {}
        for node in reversed(topo):
            ctx = node._ctx
            assert ctx is not None
            if node.grad is None:
                continue
            input_grads = ctx.run_backward(node.grad)
            tensor_args = list(ctx.inputs)
            if len(input_grads) != len(tensor_args):
                raise RuntimeError(
                    f"{type(ctx).__name__}.backward returned {len(input_grads)} grads "
                    f"for {len(tensor_args)} inputs"
                )
            for arg, g in zip(tensor_args, input_grads):
                if g is None or not isinstance(arg, Tensor) or not arg.requires_grad:
                    continue
                key = id(arg)
                if isinstance(g, SliceGrad):
                    if arg.grad is None:
                        arg.grad = np.zeros(g.shape, dtype=np.float32)
                        owned[key] = True
                    if owned.get(key):
                        arg.grad[g.index] += g.values
                        continue
                    g = g.materialize()
                else:
                    g = np.asarray(g, dtype=np.float32)
                if arg.grad is None:
                    if arg._ctx is not None:
                        # By reference, but a strided view is copied to C order so
                        # later ops see the layout (and BLAS paths) a copy gives.
                        arg.grad = np.ascontiguousarray(g)
                        continue
                    arg.grad = g.copy()
                elif key in owned:
                    np.add(arg.grad, g, out=arg.grad)
                else:
                    arg.grad = arg.grad + g
                owned[key] = False

    # -- operator sugar --------------------------------------------------------
    def _coerce(self, other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=np.float32))

    def __add__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.add(self, self._coerce(other))

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.sub(self, self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.sub(self._coerce(other), self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.mul(self, self._coerce(other))

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.div(self, self._coerce(other))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.div(self._coerce(other), self)

    def __neg__(self) -> "Tensor":
        from repro.tensor import ops

        return ops.neg(self)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from repro.tensor import ops

        return ops.matmul(self, self._coerce(other))

    def __pow__(self, exponent: float) -> "Tensor":
        from repro.tensor import ops

        return ops.power(self, exponent)

    def __getitem__(self, index) -> "Tensor":
        from repro.tensor import ops

        return ops.getitem(self, index)

    # -- convenience methods ----------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        from repro.tensor import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self) -> "Tensor":
        from repro.tensor import ops

        return ops.transpose(self)

    def sigmoid(self) -> "Tensor":
        from repro.tensor import ops

        return ops.sigmoid(self)

    def tanh(self) -> "Tensor":
        from repro.tensor import ops

        return ops.tanh(self)

    def relu(self) -> "Tensor":
        from repro.tensor import ops

        return ops.relu(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"
