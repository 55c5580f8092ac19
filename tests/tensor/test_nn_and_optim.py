"""Tests for nn modules, RNN cells, losses, optimizers and the sparse op."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CSRMatrix
from repro.gpu import GPUSpec
from repro.kernels import GESpMMAggregation
from repro.tensor import Adam, Tensor, ops, spmm
from repro.tensor.nn import GRUCell, Linear, LSTMCell, Module, Parameter, mse_loss


def rand(shape, seed=0):
    return np.random.default_rng(seed).uniform(-1, 1, size=shape).astype(np.float32)


class TestModule:
    def test_parameters_registered_recursively(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(4, 3, seed=0)
                self.fc2 = Linear(3, 2, seed=1)

        net = Net()
        names = dict(net.named_parameters())
        assert set(names) == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"}
        assert sum(p.size for p in net.parameters()) == 4 * 3 + 3 + 3 * 2 + 2

    def test_train_eval_propagates(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(2, 2)

        net = Net().train(False)
        assert net.training is False and net.fc.training is False

    def test_zero_grad(self):
        lin = Linear(2, 2, seed=0)
        x = Tensor(rand((3, 2)), requires_grad=True)
        mse_loss(lin(x), Tensor(np.zeros((3, 2), np.float32))).backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None


class TestLayers:
    def test_linear_shapes_and_values(self):
        lin = Linear(4, 3, seed=0)
        x = Tensor(rand((5, 4)))
        out = lin(x)
        assert out.shape == (5, 3)
        assert np.allclose(out.numpy(), x.numpy() @ lin.weight.data + lin.bias.data, atol=1e-5)

    def test_linear_no_bias(self):
        lin = Linear(4, 3, seed=0)
        assert len(lin.parameters()) == 2 and not lin.bias.data.any()

    def test_linear_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_lstm_cell_shapes_and_state(self):
        cell = LSTMCell(4, 6, seed=0)
        x = Tensor(rand((5, 4)))
        h, c = cell(x)
        assert h.shape == (5, 6) and c.shape == (5, 6)
        h2, c2 = cell(x, (h, c))
        assert not np.allclose(h.numpy(), h2.numpy())

    def test_gru_cell_shapes(self):
        cell = GRUCell(4, 6, seed=0)
        x = Tensor(rand((5, 4)))
        h = cell(x)
        assert h.shape == (5, 6)
        assert np.all(np.abs(h.numpy()) <= 1.0 + 1e-5)

    def test_rnn_cells_backprop_to_weights(self):
        cell = GRUCell(3, 3, seed=0)
        x = Tensor(rand((4, 3)), requires_grad=True)
        loss = mse_loss(cell(x), Tensor(np.zeros((4, 3), np.float32)))
        loss.backward()
        assert cell.weight_ih.grad is not None and x.grad is not None

    def test_gru_identity_on_converged_update_gate(self):
        cell = GRUCell(3, 3, seed=1)
        # Forcing the update gate to 1 keeps the previous hidden state.
        cell.bias_ih.data[3:6] = 50.0
        h_prev = Tensor(rand((2, 3), seed=5))
        h_next = cell(Tensor(rand((2, 3), seed=6)), h_prev)
        assert np.allclose(h_next.numpy(), h_prev.numpy(), atol=1e-3)


class TestLosses:
    def test_mse_zero_for_equal(self):
        x = Tensor(rand((3, 3)))
        assert mse_loss(x, Tensor(x.numpy().copy())).item() == pytest.approx(0.0, abs=1e-7)

    def test_mse_matches_numpy(self):
        a, b = rand((4, 2), 1), rand((4, 2), 2)
        assert mse_loss(Tensor(a), Tensor(b)).item() == pytest.approx(((a - b) ** 2).mean(), rel=1e-5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))


class TestOptimizers:
    def _quadratic_problem(self):
        target = rand((4, 3), seed=8)
        param = Parameter(np.zeros((4, 3), dtype=np.float32))
        return param, Tensor(target)

    def test_adam_converges(self):
        param, target = self._quadratic_problem()
        opt = Adam([param], lr=0.1)
        for _ in range(100):
            loss = mse_loss(param, target)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert mse_loss(param, target).item() < 1e-2

    def test_optimizer_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_weight_decay_shrinks_weights(self):
        param = Parameter(np.ones((2, 2), dtype=np.float32))
        opt = Adam([param], lr=0.1, weight_decay=1.0)
        loss = ops.sum(param * Tensor(np.zeros((2, 2), np.float32)))
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert np.all(param.data < 1.0)


class TestSparseOp:
    def _kernel(self):
        rng = np.random.default_rng(0)
        rows, cols = rng.integers(0, 10, 30), rng.integers(0, 10, 30)
        mask = rows != cols
        adj = CSRMatrix.from_edges(rows[mask], cols[mask], (10, 10))
        return adj, GESpMMAggregation(adj, GPUSpec())

    def test_spmm_forward_matches_dense(self):
        adj, kernel = self._kernel()
        x = Tensor(rand((10, 4)))
        assert np.allclose(spmm(kernel, x).numpy(), adj.to_dense() @ x.numpy(), atol=1e-5)

    def test_spmm_backward_is_transpose_matmul(self):
        adj, kernel = self._kernel()
        x = Tensor(rand((10, 4)), requires_grad=True)
        out = spmm(kernel, x)
        out.backward(np.ones_like(out.numpy()))
        expected = adj.to_dense().T @ np.ones((10, 4), dtype=np.float32)
        assert np.allclose(x.grad, expected, atol=1e-5)

    def test_spmm_emits_kernel_cost(self):
        from repro.tensor import observe_ops

        _, kernel = self._kernel()
        events = []
        x = Tensor(rand((10, 4)), requires_grad=True)
        with observe_ops(events.append):
            spmm(kernel, x).backward(np.ones((10, 4), dtype=np.float32))
        spmm_events = [e for e in events if e.name == "spmm"]
        assert len(spmm_events) == 2
        assert all(e.attrs.get("kernel_cost") is not None for e in spmm_events)
