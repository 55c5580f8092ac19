"""Dense differentiable operations and their functional API.

Every public function takes/returns :class:`~repro.tensor.tensor.Tensor` and
is backed by a :class:`~repro.tensor.function.Function` subclass implementing
the forward numerics and the backward rule.  The backward of each function
returns one gradient per positional input recorded by the engine.
"""

from __future__ import annotations

import copy
from typing import Sequence, Tuple

import numpy as np

from repro.tensor.function import Function, unbroadcast
from repro.tensor.tensor import SliceGrad, Tensor


# ---------------------------------------------------------------------------
# elementwise binary ops
# ---------------------------------------------------------------------------
class Add(Function):
    op_name = "add"

    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.a_shape, self.b_shape = a.shape, b.shape
        return a + b

    def backward(self, grad: np.ndarray):
        return unbroadcast(grad, self.a_shape), unbroadcast(grad, self.b_shape)


class Sub(Function):
    op_name = "sub"

    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.a_shape, self.b_shape = a.shape, b.shape
        return a - b

    def backward(self, grad: np.ndarray):
        return unbroadcast(grad, self.a_shape), unbroadcast(-grad, self.b_shape)


class Mul(Function):
    op_name = "mul"

    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.a, self.b = a, b
        return a * b

    def backward(self, grad: np.ndarray):
        return unbroadcast(grad * self.b, self.a.shape), unbroadcast(grad * self.a, self.b.shape)


class Div(Function):
    op_name = "div"

    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.a, self.b = a, b
        return a / b

    def backward(self, grad: np.ndarray):
        grad_a = unbroadcast(grad / self.b, self.a.shape)
        grad_b = unbroadcast(-grad * self.a / (self.b * self.b), self.b.shape)
        return grad_a, grad_b


class Neg(Function):
    op_name = "neg"

    def forward(self, a: np.ndarray) -> np.ndarray:
        return -a

    def backward(self, grad: np.ndarray):
        return (-grad,)


class Power(Function):
    op_name = "power"

    def forward(self, a: np.ndarray, exponent: float) -> np.ndarray:
        self.a, self.exponent = a, float(exponent)
        return a**self.exponent

    def backward(self, grad: np.ndarray):
        return (grad * self.exponent * self.a ** (self.exponent - 1.0), None)


# ---------------------------------------------------------------------------
# matrix multiplication
# ---------------------------------------------------------------------------
class MatMul(Function):
    op_name = "matmul"

    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
        self.a, self.b = a, b
        return a @ b

    def backward(self, grad: np.ndarray):
        return grad @ self.b.T, self.a.T @ grad


# ---------------------------------------------------------------------------
# activations / elementwise unary
# ---------------------------------------------------------------------------
class Sigmoid(Function):
    op_name = "sigmoid"

    def forward(self, a: np.ndarray) -> np.ndarray:
        # Numerically stable without a per-sign split: with e = exp(-|a|),
        # sigmoid is 1 / (1 + e) for a >= 0 and e / (1 + e) below, and
        # exp(min(a, 0)) is exactly that numerator (1 above zero; e below,
        # where -|a| == a).  No sign mask or select, which mispredicts on
        # mixed signs; bitwise equal to gathering each half by mask on
        # float32.  The output is saved for backward.
        d = np.exp(-np.abs(a))
        d += a.dtype.type(1)
        num = np.exp(np.minimum(a, a.dtype.type(0)))
        self.out = np.divide(num, d, out=num)
        return self.out

    def backward(self, grad: np.ndarray):
        return (grad * self.out * (1.0 - self.out),)


class Tanh(Function):
    op_name = "tanh"

    def forward(self, a: np.ndarray) -> np.ndarray:
        self.out = np.tanh(a)
        return self.out

    def backward(self, grad: np.ndarray):
        return (grad * (1.0 - self.out * self.out),)


class ReLU(Function):
    op_name = "relu"

    def forward(self, a: np.ndarray) -> np.ndarray:
        self.mask = a > 0
        return a * self.mask

    def backward(self, grad: np.ndarray):
        return (grad * self.mask,)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------
class Sum(Function):
    op_name = "sum"

    def forward(self, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        self.a_shape, self.axis, self.keepdims = a.shape, axis, keepdims
        return a.sum(axis=axis, keepdims=keepdims)

    def backward(self, grad: np.ndarray):
        grad = np.asarray(grad, dtype=np.float32)
        if self.axis is not None and not self.keepdims:
            axes = self.axis if isinstance(self.axis, tuple) else (self.axis,)
            for axis in sorted(a % len(self.a_shape) for a in axes):
                grad = np.expand_dims(grad, axis)
        return (np.broadcast_to(grad, self.a_shape).astype(np.float32), None, None)


class Mean(Function):
    op_name = "mean"

    def forward(self, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        self.a_shape, self.axis, self.keepdims = a.shape, axis, keepdims
        if axis is None:
            self.count = a.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            self.count = int(np.prod([a.shape[ax] for ax in axes]))
        return a.mean(axis=axis, keepdims=keepdims)

    def backward(self, grad: np.ndarray):
        grad = np.asarray(grad, dtype=np.float32)
        if self.axis is not None and not self.keepdims:
            axes = self.axis if isinstance(self.axis, tuple) else (self.axis,)
            for axis in sorted(a % len(self.a_shape) for a in axes):
                grad = np.expand_dims(grad, axis)
        full = np.broadcast_to(grad, self.a_shape).astype(np.float32) / float(self.count)
        return (full, None, None)


class Max(Function):
    op_name = "max"

    def forward(self, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        self.a, self.axis, self.keepdims = a, axis, keepdims
        self.out = a.max(axis=axis, keepdims=True) if axis is not None else a.max()
        result = self.out if keepdims or axis is None else np.squeeze(self.out, axis=axis)
        return np.asarray(result)

    def backward(self, grad: np.ndarray):
        grad = np.asarray(grad, dtype=np.float32)
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        mask = (self.a == self.out).astype(np.float32)
        mask /= np.maximum(mask.sum(axis=self.axis, keepdims=True) if self.axis is not None else mask.sum(), 1.0)
        return (mask * grad, None, None)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------
class Reshape(Function):
    op_name = "reshape"

    def forward(self, a: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
        self.a_shape = a.shape
        return a.reshape(shape)

    def backward(self, grad: np.ndarray):
        return (grad.reshape(self.a_shape), None)


class Transpose(Function):
    op_name = "transpose"

    def forward(self, a: np.ndarray) -> np.ndarray:
        if a.ndim != 2:
            raise ValueError(f"transpose expects a 2-D tensor, got shape {a.shape}")
        return np.ascontiguousarray(a.T)

    def backward(self, grad: np.ndarray):
        return (np.ascontiguousarray(grad.T),)


class Concat(Function):
    op_name = "concat"

    def forward(self, *arrays: np.ndarray, axis: int = -1) -> np.ndarray:
        self.axis = axis
        self.sizes = [a.shape[axis] for a in arrays]
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad: np.ndarray):
        splits = np.cumsum(self.sizes)[:-1]
        return tuple(np.ascontiguousarray(g) for g in np.split(grad, splits, axis=self.axis))


class Stack(Function):
    op_name = "stack"

    def forward(self, *arrays: np.ndarray, axis: int = 0) -> np.ndarray:
        self.axis = axis
        return np.stack(arrays, axis=axis)

    def backward(self, grad: np.ndarray):
        pieces = np.split(grad, grad.shape[self.axis], axis=self.axis)
        return tuple(np.ascontiguousarray(np.squeeze(p, axis=self.axis)) for p in pieces)


def _is_basic(item) -> bool:
    """Whether ``item`` is an index entry that cannot name an element twice."""
    return item is None or item is Ellipsis or isinstance(item, (int, np.integer, slice))


def _snapshot(index):
    """``index`` with its arrays and lists copied, so later edits cannot move it."""
    if isinstance(index, tuple):
        return tuple(_snapshot(item) for item in index)
    if isinstance(index, np.ndarray):
        return index.copy()
    return copy.deepcopy(index) if isinstance(index, list) else index


class GetItem(Function):
    op_name = "getitem"

    def forward(self, a: np.ndarray, index) -> np.ndarray:
        self.a_shape, self.index = a.shape, _snapshot(index)
        items = self.index if isinstance(self.index, tuple) else (self.index,)
        self.basic = all(_is_basic(item) for item in items)
        return np.ascontiguousarray(a[self.index])

    def backward(self, grad: np.ndarray):
        if self.basic:
            return (SliceGrad(self.a_shape, self.index, grad), None)
        # Only advanced indices can name an element twice; np.add.at sums those.
        full = np.zeros(self.a_shape, dtype=np.float32)
        np.add.at(full, self.index, grad)
        return (full, None)


# ---------------------------------------------------------------------------
# functional API
# ---------------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    return Add.apply(a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return Sub.apply(a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return Mul.apply(a, b)


def div(a: Tensor, b: Tensor) -> Tensor:
    return Div.apply(a, b)


def neg(a: Tensor) -> Tensor:
    return Neg.apply(a)


def power(a: Tensor, exponent: float) -> Tensor:
    return Power.apply(a, exponent)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return MatMul.apply(a, b)


def sigmoid(a: Tensor) -> Tensor:
    return Sigmoid.apply(a)


def tanh(a: Tensor) -> Tensor:
    return Tanh.apply(a)


def relu(a: Tensor) -> Tensor:
    return ReLU.apply(a)


def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001 - mirrors numpy
    return Sum.apply(a, axis, keepdims)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return Mean.apply(a, axis, keepdims)


def max(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001 - mirrors numpy
    return Max.apply(a, axis, keepdims)


def reshape(a: Tensor, shape: Tuple[int, ...]) -> Tensor:
    return Reshape.apply(a, shape)


def transpose(a: Tensor) -> Tensor:
    return Transpose.apply(a)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    return Concat.apply(*tensors, axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("stack needs at least one tensor")
    return Stack.apply(*tensors, axis=axis)


def getitem(a: Tensor, index) -> Tensor:
    return GetItem.apply(a, index)
