"""Gradient accumulation in ``Tensor.backward``: bitwise parity and ownership.

The engine adds a basic-index ``getitem`` gradient in place into a buffer it
allocates, and takes an intermediate's first dense gradient by reference.
These tests pin that the result is bit for bit what a scatter-and-copy
engine computes: every ``getitem`` scattered into parent-sized zeros with
``np.add.at``, a first contribution copied, later ones added into a new
array.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.tensor import Tensor, observe_ops, ops
from repro.tensor.nn import GRUCell, LSTMCell


def rand(shape, seed=0):
    return np.random.default_rng(seed).uniform(-1, 1, size=shape).astype(np.float32)


def topo_order(root: Tensor) -> List[Tensor]:
    """The post-order ``Tensor.backward`` visits (same DFS, same order)."""
    topo: List[Tensor] = []
    visited = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
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
            if isinstance(parent, Tensor) and parent._ctx is not None and id(parent) not in visited:
                stack.append((parent, False))
    return topo


def reference_backward(root: Tensor, seed: np.ndarray) -> Dict[int, np.ndarray]:
    """Gradients by ``id`` of tensor, accumulated the scatter-and-copy way.

    Leaves every ``.grad`` untouched, so the engine can run on the same graph
    afterwards.
    """
    grads: Dict[int, np.ndarray] = {id(root): seed}
    for node in reversed(topo_order(root)):
        ctx = node._ctx
        upstream = grads.get(id(node))
        if upstream is None:
            continue
        if isinstance(ctx, ops.GetItem):
            full = np.zeros(ctx.a_shape, dtype=np.float32)
            np.add.at(full, ctx.index, upstream)
            input_grads = (full, None)
        else:
            input_grads = ctx.backward(upstream)
        for arg, g in zip(ctx.inputs, input_grads):
            if g is None or not isinstance(arg, Tensor) or not arg.requires_grad:
                continue
            g = np.asarray(g, dtype=np.float32)
            grads[id(arg)] = grads[id(arg)] + g if id(arg) in grads else g.copy()
    return grads


def graph_tensors(root: Tensor) -> List[Tensor]:
    """Every tensor that requires grad in ``root``'s graph, root included."""
    found = {id(root): root}
    for node in topo_order(root):
        for arg in node._ctx.inputs:
            if isinstance(arg, Tensor) and arg.requires_grad:
                found.setdefault(id(arg), arg)
    return list(found.values())


def assert_bitwise(tensors: List[Tensor], reference: Dict[int, np.ndarray]) -> None:
    for tensor in tensors:
        expected = reference[id(tensor)]
        assert tensor.grad.dtype == expected.dtype and tensor.grad.shape == expected.shape
        assert tensor.grad.tobytes() == expected.tobytes(), tensor.name or tensor.shape


def upstream_with_signed_zeros(shape, seed) -> np.ndarray:
    grad = rand(shape, seed)
    grad[::2, ::2] = -0.0
    grad[1::3] = 0.0
    return grad


def with_negative_zeros(shape, seed) -> np.ndarray:
    values = rand(shape, seed)
    values[values < -0.3] = -0.0
    return values


class TestRecurrentCellParity:
    STEPS = 4

    def inputs(self):
        return [Tensor(rand((8, 5), seed=10 + t), requires_grad=True) for t in range(self.STEPS)]

    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_lstm_cell_unrolled(self, signed_zeros):
        cell = LSTMCell(5, 6, seed=0)
        xs = self.inputs()
        state, outputs = None, []
        for x in xs:
            state = cell(x, state)
            outputs.append(state[0])
        root = ops.concat(outputs + [state[1]], axis=1)
        seed = upstream_with_signed_zeros(root.shape, 1) if signed_zeros else rand(root.shape, 1)
        reference = reference_backward(root, seed)
        root.backward(seed)
        assert_bitwise(graph_tensors(root), reference)

    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_gru_cell_unrolled(self, signed_zeros):
        cell = GRUCell(5, 6, seed=0)
        xs = self.inputs()
        h, outputs = None, []
        for x in xs:
            h = cell(x, h)
            outputs.append(h)
        root = ops.concat(outputs, axis=1)
        seed = upstream_with_signed_zeros(root.shape, 2) if signed_zeros else rand(root.shape, 2)
        reference = reference_backward(root, seed)
        root.backward(seed)
        assert_bitwise(graph_tensors(root), reference)


class TestSlicedAndDenseReads:
    """One tensor read by slices and by a dense op, all of whose gradients hold -0.0."""

    def build(self, leaf: bool, slice_first: bool):
        x = Tensor(rand((4, 6), seed=3), requires_grad=True, name="x")
        target = x if leaf else x @ Tensor(rand((6, 6), seed=4), requires_grad=True)
        # Column 2 is read by all three, and every read's gradient there is
        # -0.0 below row 0: the scatter-and-copy sum is +0.0, while adding
        # the slices' -0.0 values unmaterialized would keep -0.0.
        signs = np.where(rand((4, 6), seed=5) > 0, 0.0, -0.0).astype(np.float32)
        first_values, second_values = with_negative_zeros((4, 3), 6), with_negative_zeros((3, 3), 7)
        signs[1:, 2] = first_values[1:, 2] = second_values[:, 0] = -0.0
        sliced = ops.sum(target[:, 0:3] * Tensor(first_values))
        dense = ops.sum(target * Tensor(signs))
        sliced_again = ops.sum(target[1:, 2:5] * Tensor(second_values))
        first, second = (sliced, dense) if slice_first else (dense, sliced)
        return target, (first + second) + sliced_again

    @pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "intermediate"])
    @pytest.mark.parametrize("slice_first", [True, False], ids=["slice-first", "dense-first"])
    def test_matches_scatter_and_copy(self, leaf, slice_first):
        target, root = self.build(leaf, slice_first)
        seed = np.ones(root.shape, dtype=np.float32)
        reference = reference_backward(root, seed)
        events = []
        with observe_ops(events.append):
            root.backward(seed)
        assert_bitwise(graph_tensors(root), reference)
        # The dense read's gradient reaches ``target`` before or after the
        # first slice's, as the test names.
        backward = [(e.name, e.input_shapes) for e in events if e.phase == "backward"]
        dense_at = backward.index(("mul", ((4, 6),)))
        slice_at = backward.index(("getitem", ((4, 3),)))
        assert (slice_at < dense_at) == slice_first


class TestGradientOwnership:
    def test_leaf_grad_does_not_alias_the_upstream_array(self):
        x = Tensor(rand((3, 4)), requires_grad=True)
        y = x + Tensor(np.zeros(4, dtype=np.float32))  # Add passes the gradient through
        root = y.reshape(4, 3)  # so does Reshape, as a view
        seed = rand((4, 3), seed=1)
        root.backward(seed)
        expected = seed.reshape(3, 4).copy()
        seed[...] = 7.0
        y.grad[...] = 9.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_leaf_root_grad_is_a_copy(self):
        x = Tensor(rand((2, 2)), requires_grad=True)
        seed = rand((2, 2), seed=1)
        x.backward(seed)
        seed[...] = 0.0
        assert not np.array_equal(x.grad, seed)

    def test_intermediate_takes_its_first_gradient_by_reference(self):
        x = Tensor(rand((3, 4)), requires_grad=True)
        y = x * 2.0
        z = y + Tensor(np.zeros(4, dtype=np.float32))
        seed = rand((3, 4), seed=1)
        z.backward(seed)
        assert z.grad is seed and y.grad is seed

    def test_backward_never_writes_into_a_shared_gradient(self):
        x = Tensor(rand((3, 4)), requires_grad=True)
        y = x * 2.0
        z = y + y  # both inputs get the very array z.grad is
        seed = rand((3, 4), seed=1)
        before = seed.copy()
        z.backward(seed)
        np.testing.assert_array_equal(seed, before)
        np.testing.assert_array_equal(y.grad, before + before)
