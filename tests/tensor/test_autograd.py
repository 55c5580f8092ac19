"""Autograd engine tests: forward values, gradients, observer, grad mode."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor, no_grad, observe_ops, ops, op_scope
from repro.tensor import function as function_module
from repro.tensor.function import Function, OpEvent


def numeric_gradient(fn, array, eps=1e-3):
    """Central-difference gradient of a scalar-valued fn w.r.t. array."""
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        f_plus = fn()
        array[idx] = original - eps
        f_minus = fn()
        array[idx] = original
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_gradient(build_loss, *tensors, atol=2e-2, rtol=5e-2):
    """Compare autograd gradients against numeric differentiation."""
    loss = build_loss()
    loss.backward()
    for tensor in tensors:
        numeric = numeric_gradient(lambda: build_loss().item(), tensor.data)
        assert tensor.grad is not None
        np.testing.assert_allclose(tensor.grad, numeric, atol=atol, rtol=rtol)


def rand_tensor(*shape, seed=0, requires_grad=True):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(-1, 1, size=shape).astype(np.float32), requires_grad=requires_grad)


class TestForwardValues:
    def test_add_broadcast(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.arange(3, dtype=np.float32))
        assert np.allclose((a + b).numpy(), 1.0 + np.arange(3))

    def test_matmul(self):
        a, b = rand_tensor(3, 4), rand_tensor(4, 5, seed=1)
        assert np.allclose((a @ b).numpy(), a.numpy() @ b.numpy(), atol=1e-5)

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            _ = rand_tensor(3) @ rand_tensor(3)

    def test_activations_match_numpy(self):
        x = rand_tensor(4, 4, seed=2)
        assert np.allclose(ops.sigmoid(x).numpy(), 1 / (1 + np.exp(-x.numpy())), atol=1e-5)
        assert np.allclose(ops.tanh(x).numpy(), np.tanh(x.numpy()), atol=1e-6)
        assert np.allclose(ops.relu(x).numpy(), np.maximum(x.numpy(), 0))

    def test_sigmoid_is_bitwise_the_masked_formula(self):
        def masked_sigmoid(a):
            # the per-sign gather/scatter formulation the op used to run
            out = np.empty_like(a)
            positive = a >= 0
            out[positive] = 1.0 / (1.0 + np.exp(-a[positive]))
            exp_a = np.exp(a[~positive])
            out[~positive] = exp_a / (1.0 + exp_a)
            return out

        f32 = np.finfo(np.float32)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, f32.smallest_subnormal,
                   -f32.smallest_subnormal, 1e-40, -1e-40, f32.tiny, -f32.tiny,
                   88.7, -88.7, 104.0, -104.0, f32.max, -f32.max]
        rng = np.random.default_rng(5)
        a = np.concatenate([
            np.array(special, dtype=np.float32),
            rng.normal(0.0, 8.0, size=4096).astype(np.float32),
            rng.uniform(-120.0, 120.0, size=4096).astype(np.float32),
        ])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = masked_sigmoid(a)
            got = ops.sigmoid(Tensor(a)).numpy()
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))

    def test_sigmoid_is_bitwise_the_where_formula(self):
        def where_sigmoid(a):
            # the sign-select formulation the op ran before it went branch-free
            one = a.dtype.type(1)
            e = np.exp(-np.abs(a))
            d = e + one
            return np.divide(np.where(a >= 0, one, e), d, out=d)

        dtype = np.float32  # tensors always hold float32
        info = np.finfo(dtype)
        # exp overflows past log(max) and underflows to subnormals past
        # log(tiny) and to zero past log(smallest_subnormal)
        edges = [np.log(info.max), np.log(info.tiny), np.log(info.smallest_subnormal)]
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, info.smallest_subnormal,
                   -info.smallest_subnormal, info.tiny, -info.tiny, info.max, -info.max,
                   info.eps, -info.eps, 1.0, -1.0]
        values = np.array(special, dtype=dtype)
        for edge in np.array(edges, dtype=dtype):
            around = [np.nextafter(edge, dtype(np.inf)), edge, np.nextafter(edge, dtype(-np.inf))]
            values = np.concatenate([values, around, np.negative(around)]).astype(dtype)
        rng = np.random.default_rng(11)
        mixed = np.concatenate([values, rng.normal(0.0, 30.0, size=4099).astype(dtype)])
        # odd lengths and an unaligned start exercise the vector loops' tails
        arrays = [mixed, mixed[1:], mixed.reshape(-1, 1)[::3]] + [
            rng.permutation(mixed)[:n] for n in (1, 3, 5, 7, 9, 15, 17, 31, 33, 63, 65)
        ]
        for a in arrays:
            with np.errstate(over="ignore", invalid="ignore"):
                expected = where_sigmoid(a)
                got = ops.sigmoid(Tensor(a)).numpy()
            assert got.dtype == dtype
            assert got.tobytes() == expected.tobytes()

    def test_reductions(self):
        x = rand_tensor(3, 4, seed=4)
        assert np.allclose(ops.sum(x).item(), x.numpy().sum(), atol=1e-5)
        assert np.allclose(ops.mean(x, axis=0).numpy(), x.numpy().mean(axis=0), atol=1e-5)
        assert np.allclose(ops.max(x, axis=1).numpy(), x.numpy().max(axis=1))

    def test_concat_and_stack(self):
        a, b = rand_tensor(2, 3), rand_tensor(2, 2, seed=1)
        assert ops.concat([a, b], axis=1).shape == (2, 5)
        assert ops.stack([a, a], axis=0).shape == (2, 2, 3)

    def test_getitem_slicing(self):
        x = rand_tensor(4, 6)
        assert np.allclose(x[:, 2:4].numpy(), x.numpy()[:, 2:4])

    def test_reshape_transpose(self):
        x = rand_tensor(2, 6)
        assert x.reshape(3, 4).shape == (3, 4)
        assert np.allclose(x.T.numpy(), x.numpy().T)

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError):
            rand_tensor(2, 2).item()


class TestGradients:
    def test_add_mul_chain(self):
        a, b = rand_tensor(3, 3, seed=1), rand_tensor(3, 3, seed=2)
        check_gradient(lambda: ops.sum((a + b) * a), a, b)

    def test_matmul_grad(self):
        a, b = rand_tensor(3, 4, seed=3), rand_tensor(4, 2, seed=4)
        check_gradient(lambda: ops.sum(a @ b), a, b)

    def test_div_grad(self):
        a, b = rand_tensor(3, 3, seed=5), Tensor(np.full((3, 3), 2.0, np.float32), requires_grad=True)
        check_gradient(lambda: ops.sum(a / b), a, b)

    def test_activation_grads(self):
        x = rand_tensor(4, 3, seed=6)
        check_gradient(lambda: ops.sum(ops.sigmoid(x) * ops.tanh(x)), x)

    def test_mean_axis_grad(self):
        x = rand_tensor(4, 5, seed=8)
        check_gradient(lambda: ops.sum(ops.mean(x, axis=1) ** 2.0), x)

    def test_broadcast_bias_grad(self):
        x, b = rand_tensor(5, 3, seed=9), rand_tensor(3, seed=10)
        check_gradient(lambda: ops.sum((x + b) ** 2.0), x, b)

    def test_getitem_grad(self):
        x = rand_tensor(4, 6, seed=11)
        check_gradient(lambda: ops.sum(x[:, 1:4] * x[:, 2:5]), x)

    def test_concat_grad(self):
        a, b = rand_tensor(3, 2, seed=12), rand_tensor(3, 3, seed=13)
        check_gradient(lambda: ops.sum(ops.concat([a, b], axis=1) ** 2.0), a, b)

    def test_grad_accumulates_across_backward_calls(self):
        x = rand_tensor(2, 2, seed=14)
        ops.sum(x * x).backward()
        first = x.grad.copy()
        ops.sum(x * x).backward()
        assert np.allclose(x.grad, 2 * first)

    def test_shared_subexpression_accumulates(self):
        x = rand_tensor(3, 3, seed=15)
        y = x * x
        check_gradient(lambda: ops.sum(x * x + x * x), x)
        assert y is not None

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_backward_shape_mismatch(self):
        x = rand_tensor(2, 2)
        y = ops.sum(x)
        with pytest.raises(ValueError):
            y.backward(np.ones((3, 3), dtype=np.float32))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 5), m=st.integers(1, 5), k=st.integers(1, 5), seed=st.integers(0, 100))
    def test_property_linear_chain_gradcheck(self, n, m, k, seed):
        """Gradients of sum(tanh(A@B)) match numeric differentiation for any shape."""
        a, b = rand_tensor(n, k, seed=seed), rand_tensor(k, m, seed=seed + 1)
        check_gradient(lambda: ops.sum(ops.tanh(a @ b)), a, b)


class TestGetItem:
    @pytest.mark.parametrize(
        "index",
        [
            1,
            -1,
            (slice(None), 2),
            slice(None, None, 2),
            (slice(None), slice(4, 0, -2)),
            slice(None, None, -1),
            (Ellipsis, 3),
            (None, slice(1, 3)),
            (slice(1, None), None, slice(None, None, 3)),
        ],
        ids=["int", "neg-int", "column", "step", "neg-step", "reverse", "ellipsis", "none", "mixed-basic"],
    )
    def test_basic_index_grad(self, index):
        x = rand_tensor(4, 6, seed=20)
        check_gradient(lambda: ops.sum(x[index] ** 2.0), x)

    @pytest.mark.parametrize(
        "index",
        [
            [0, 0, 1],
            np.array([True, False, True, True]),
            (slice(None), np.array([0, 2, 2, 5])),
        ],
        ids=["list-with-duplicates", "bool-mask", "slice-and-array"],
    )
    def test_advanced_index_sums_duplicates(self, index):
        x = rand_tensor(4, 6, seed=21)
        check_gradient(lambda: ops.sum(x[index] ** 2.0), x)

    @pytest.mark.parametrize("in_tuple", [False, True], ids=["array", "list-in-tuple"])
    def test_index_mutated_after_forward(self, in_tuple):
        x = rand_tensor(3, 2, seed=23)
        rows = [0, 2] if in_tuple else np.array([0, 2])
        y = x[(rows, slice(None)) if in_tuple else rows]
        rows[0] = 1
        ops.sum(y).backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("index", [(slice(None), slice(1, 3)), [0, 2]], ids=["basic", "advanced"])
    def test_backward_event_reports_the_parent_shape(self, index):
        events = []
        x = rand_tensor(4, 6, seed=25)
        with observe_ops(events.append):
            ops.sum(x[index]).backward()
        (event,) = [e for e in events if e.name == "getitem" and e.phase == "backward"]
        assert event.output_shapes == ((4, 6),)


class Float64Out(Function):
    """A function whose forward returns float64, as NumPy ops on mixed dtypes may."""

    op_name = "float64_out"

    def forward(self, a: np.ndarray) -> np.ndarray:
        return a.astype(np.float64) * 2.0

    def backward(self, grad: np.ndarray):
        return (grad * 2.0,)


class ZeroDArraySum(Function):
    """A sum whose forward returns a 0-d ndarray rather than a NumPy scalar."""

    op_name = "zero_d_array_sum"

    def forward(self, a: np.ndarray) -> np.ndarray:
        self.a_shape = a.shape
        out = np.asarray(a.sum(), dtype=np.float32)
        assert type(out) is np.ndarray and out.ndim == 0
        return out

    def backward(self, grad: np.ndarray):
        return (np.full(self.a_shape, grad.reshape(-1)[0], dtype=np.float32),)


class EveryOtherColumn(Function):
    """Returns a strided view of its input, as a NumPy slice does."""

    op_name = "every_other_column"

    def forward(self, a: np.ndarray) -> np.ndarray:
        self.a_shape = a.shape
        return a[:, ::2]

    def backward(self, grad: np.ndarray):
        full = np.zeros(self.a_shape, dtype=np.float32)
        full[:, ::2] = grad
        return (full,)


class TestTensorContract:
    """Every tensor holds a C-contiguous float32 array with ndim >= 1."""

    @staticmethod
    def assert_canonical(t: Tensor) -> None:
        assert t.data.dtype == np.float32
        assert t.data.flags.c_contiguous
        assert t.data.ndim >= 1

    def test_op_outputs_are_c_contiguous_float32(self):
        x = rand_tensor(3, 4, seed=31)
        for out in (x + x, x @ x.T, ops.sigmoid(x), ops.transpose(x), x.reshape(4, 3)):
            self.assert_canonical(out)

    def test_zero_d_results_have_shape_one(self):
        x = rand_tensor(3, 4, seed=32)
        zero_d = ZeroDArraySum.apply(x)
        for out in (ops.sum(x), ops.mean(x), zero_d, Tensor(np.float32(2)), Tensor(2.0)):
            self.assert_canonical(out)
            assert out.shape == (1,)
        zero_d.backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))

    def test_zero_d_event_reports_the_forward_shape(self):
        events = []
        with observe_ops(events.append):
            out = ops.sum(rand_tensor(3, 4, seed=33))
        assert out.shape == (1,)
        assert events[-1].output_shapes == ((),)

    def test_strided_column_slice_is_copied_to_c_order(self):
        x = rand_tensor(4, 6, seed=34)
        column = x[:, 1:3]
        self.assert_canonical(column)
        assert not np.shares_memory(column.data, x.data)
        np.testing.assert_array_equal(column.data, x.data[:, 1:3])

    def test_strided_view_from_forward_is_copied_to_c_order(self):
        x = rand_tensor(4, 6, seed=36)
        out = EveryOtherColumn.apply(x)
        self.assert_canonical(out)
        assert not np.shares_memory(out.data, x.data)
        np.testing.assert_array_equal(out.data, x.data[:, ::2])

    def test_float64_is_cast_to_float32(self):
        data = np.arange(6, dtype=np.float64).reshape(2, 3)
        self.assert_canonical(Tensor(data))
        out = Float64Out.apply(rand_tensor(2, 3, seed=35))
        self.assert_canonical(out)
        out.sum().backward()

    def test_canonical_array_is_taken_by_reference(self):
        data = np.ones((2, 3), dtype=np.float32)
        assert Tensor(data).data is data
        non_contiguous = np.ones((3, 2), dtype=np.float32).T
        self.assert_canonical(Tensor(non_contiguous))


class TestGradModeAndObserver:
    def test_no_grad_blocks_graph(self):
        x = rand_tensor(2, 2)
        with no_grad():
            y = ops.sum(x * x)
        assert y.requires_grad is False

    def test_observer_receives_forward_and_backward(self):
        events = []
        x = rand_tensor(3, 3)
        with observe_ops(events.append):
            loss = ops.sum(ops.relu(x @ x))
            loss.backward()
        names = [(e.name, e.phase) for e in events]
        assert ("matmul", "forward") in names
        assert ("matmul", "backward") in names
        assert all(isinstance(e, OpEvent) for e in events)

    def test_observer_restored_after_context(self):
        from repro.tensor import function

        with observe_ops(lambda e: None):
            pass
        assert function._observer is None

    def test_op_scope_tagging(self):
        events = []
        x = rand_tensor(2, 2)
        with observe_ops(events.append):
            with op_scope("rnn"):
                _ = x * x
            _ = x + x
        scopes = {e.name: e.attrs.get("scope") for e in events}
        assert scopes["mul"] == "rnn"
        assert scopes["add"] == "other"

    def test_backward_event_keeps_forward_scope(self):
        events = []
        x = rand_tensor(2, 2)
        with observe_ops(events.append):
            with op_scope("update"):
                y = ops.sum(x * x)
            y.backward()
        backward_scopes = [e.attrs.get("scope") for e in events if e.phase == "backward" and e.name == "mul"]
        assert backward_scopes == ["update"]

    def test_current_scope_default(self):
        assert function_module._scope_stack == []
