"""Tests for the aggregation kernels and the update GEMM."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRMatrix
from repro.gpu import GPUSpec
from repro.kernels import (
    GESpMMAggregation,
    PyGCOOAggregation,
    SlicedParallelAggregation,
    update_gemm,
    update_gemm_cost,
)
from repro.tensor import Tensor

SPEC = GPUSpec()


def make_adj(seed=0, n=40, m=160):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
    mask = rows != cols
    return CSRMatrix.from_edges(rows[mask], cols[mask], (n, n))


ALL_KERNELS = [PyGCOOAggregation, GESpMMAggregation, SlicedParallelAggregation]


class TestNumerics:
    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_forward_matches_reference(self, kernel_cls):
        adj = make_adj()
        kernel = kernel_cls(adj, SPEC)
        x = np.random.default_rng(1).random((40, 6)).astype(np.float32)
        assert np.allclose(kernel.forward(x), adj.to_dense() @ x, atol=1e-4)

    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_backward_is_transpose(self, kernel_cls):
        adj = make_adj()
        kernel = kernel_cls(adj, SPEC)
        grad = np.random.default_rng(2).random((40, 3)).astype(np.float32)
        assert np.allclose(kernel.backward(grad), adj.to_dense().T @ grad, atol=1e-4)

    def test_dimension_mismatch_rejected(self):
        kernel = GESpMMAggregation(make_adj(), SPEC)
        with pytest.raises(ValueError):
            kernel.forward(np.zeros((3, 3), dtype=np.float32))

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            GESpMMAggregation(make_adj(), SPEC, scale=0.0)


class TestCostShapes:
    def test_scale_multiplies_cost(self):
        adj = make_adj()
        small = GESpMMAggregation(adj, SPEC, scale=1.0).forward_cost((40, 8))
        large = GESpMMAggregation(adj, SPEC, scale=100.0).forward_cost((40, 8))
        # Extensive quantities scale linearly up to per-access ceil rounding.
        assert large.mem_transactions == pytest.approx(100.0 * small.mem_transactions, rel=1e-2)
        assert large.flops == pytest.approx(100.0 * small.flops, rel=1e-6)

    def test_coo_has_more_traffic_than_gespmm(self):
        adj = make_adj()
        coo = PyGCOOAggregation(adj, SPEC).forward_cost((40, 8))
        csr = GESpMMAggregation(adj, SPEC).forward_cost((40, 8))
        assert coo.mem_transactions > csr.mem_transactions
        assert coo.launches > csr.launches

    def test_coo_slower_than_gespmm_slower_than_sliced(self):
        """The per-aggregation time ordering matches the paper's kernel story."""
        adj = make_adj(m=400)
        x_shape = (40, 4)
        times = {
            cls.__name__: cls(adj, SPEC, scale=1000.0).forward_cost(x_shape).execution_seconds(SPEC)
            for cls in ALL_KERNELS
        }
        assert times["PyGCOOAggregation"] > times["GESpMMAggregation"] > times["SlicedParallelAggregation"]

    def test_gespmm_thread_ratio_tracks_feature_dim(self):
        adj = make_adj()
        kernel = GESpMMAggregation(adj, SPEC)
        assert kernel.forward_cost((40, 2)).active_thread_ratio == pytest.approx(2 / 32)
        assert kernel.forward_cost((40, 64)).active_thread_ratio == 1.0

    def test_sliced_coalescing_raises_thread_ratio(self):
        adj = make_adj()
        sliced = SlicedParallelAggregation(adj, SPEC)
        gespmm = GESpMMAggregation(adj, SPEC)
        assert (
            sliced.forward_cost((40, 4)).active_thread_ratio
            > gespmm.forward_cost((40, 4)).active_thread_ratio
        )

    def test_sliced_vector_loads_reduce_requests_for_large_dims(self):
        adj = make_adj()
        sliced = SlicedParallelAggregation(adj, SPEC).forward_cost((40, 128))
        gespmm = GESpMMAggregation(adj, SPEC).forward_cost((40, 128))
        assert sliced.mem_requests < gespmm.mem_requests

    def test_empty_rows_cost_nothing_in_sliced_format(self):
        # 100 rows but only 5 carry edges: GE-SpMM pays per-row overhead,
        # sliced CSR only pays per slice.
        rows = np.array([0, 1, 2, 3, 4])
        cols = np.array([10, 11, 12, 13, 14])
        adj = CSRMatrix.from_edges(rows, cols, (100, 100))
        gespmm = GESpMMAggregation(adj, SPEC).forward_cost((100, 4))
        sliced = SlicedParallelAggregation(adj, SPEC).forward_cost((100, 4))
        assert sliced.mem_transactions < gespmm.mem_transactions

    def test_backward_cost_uses_transpose_distribution(self):
        # All edges point to column 0 -> transpose is maximally skewed.
        rows = np.arange(1, 30)
        cols = np.zeros(29, dtype=np.int64)
        adj = CSRMatrix.from_edges(rows, cols, (30, 30))
        kernel = GESpMMAggregation(adj, SPEC)
        assert kernel.backward_cost((30, 8)).imbalance >= kernel.forward_cost((30, 8)).imbalance

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(1, 128), seed=st.integers(0, 50), scale=st.sampled_from([1.0, 1000.0]))
    def test_property_costs_positive_and_consistent(self, dim, seed, scale):
        """All kernels report positive, internally consistent costs for any dim."""
        adj = make_adj(seed=seed, n=20, m=60)
        if adj.nnz == 0:
            return
        for cls in ALL_KERNELS:
            cost = cls(adj, SPEC, scale=scale).forward_cost((20, dim))
            assert cost.flops > 0
            assert cost.mem_transactions >= cost.mem_requests
            assert cost.execution_seconds(SPEC) > 0


class TestUpdateGEMM:
    def test_cost_weight_reuse_reduces_traffic(self):
        base = update_gemm_cost(1000, 16, 32, SPEC, reuse_group=1)
        reused = update_gemm_cost(1000, 16, 32, SPEC, reuse_group=8)
        assert reused.global_read_bytes < base.global_read_bytes
        assert reused.flops == base.flops

    def test_cost_invalid_group(self):
        with pytest.raises(ValueError):
            update_gemm_cost(10, 4, 4, SPEC, reuse_group=0)

    def test_forward_matches_dense_and_grads_flow(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((7, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.random((5, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        out = update_gemm(x, w, b, reuse_group=2, spec=SPEC)
        assert np.allclose(out.numpy(), x.numpy() @ w.numpy() + b.numpy(), atol=1e-5)
        out.backward(np.ones_like(out.numpy()))
        assert x.grad is not None and w.grad is not None and b.grad is not None
        assert np.allclose(w.grad, x.numpy().T @ np.ones((7, 3), dtype=np.float32), atol=1e-4)

    def test_forward_without_bias(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.random((4, 2)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.random((2, 2)).astype(np.float32), requires_grad=True)
        out = update_gemm(x, w, None, spec=SPEC)
        out.backward(np.ones_like(out.numpy()))
        assert np.allclose(out.numpy(), x.numpy() @ w.numpy(), atol=1e-5)


class TestAdjacencyTransferBytes:
    """Each baseline kernel class states the bytes its adjacency ships as."""

    def test_coo_ships_three_words_per_edge(self):
        adj = CSRMatrix.from_edges(np.array([0, 1, 2]), np.array([1, 2, 0]), (4, 4))
        assert PyGCOOAggregation.adjacency_bytes(adj) == 3 * adj.nnz * 4
        assert GESpMMAggregation.adjacency_bytes(adj) > adj.nbytes

    def test_edgeless_gespmm_still_ships_both_pointer_arrays(self):
        edgeless = CSRMatrix.from_edges(np.zeros(0), np.zeros(0), (4, 6))
        assert PyGCOOAggregation.adjacency_bytes(edgeless) == 0
        assert GESpMMAggregation.adjacency_bytes(edgeless) == ((4 + 1) + (6 + 1)) * 4

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", [(7, 7), (9, 5), (4, 11)])
    def test_sizes_match_the_format_conversions(self, seed, shape):
        """The arithmetic sizes equal those of the converted matrices on CSRs
        with explicit zeros, empty rows and duplicate entries."""
        rng = np.random.default_rng(seed)
        n_rows, n_cols = shape
        row_nnz = rng.integers(2, 5, size=n_rows)
        row_nnz[rng.integers(0, n_rows)] = 0  # an empty row
        indptr = np.concatenate(([0], np.cumsum(row_nnz)))
        indices = rng.integers(0, n_cols, size=int(indptr[-1]))
        indices[1] = indices[0]  # a duplicate entry (every non-empty row holds two)
        data = rng.choice(np.array([0.0, 1.0, 2.5], dtype=np.float32), size=len(indices))
        data[-1] = 0.0  # an explicit zero
        csr = CSRMatrix(indptr=indptr, indices=indices, data=data, shape=shape)
        assert PyGCOOAggregation.adjacency_bytes(csr) == csr.to_coo().nbytes
        assert GESpMMAggregation.adjacency_bytes(csr) == csr.nbytes + csr.transpose().nbytes


def _cost_fields(cost):
    """Every field of a KernelCost, floats as ``float.hex``."""
    return {
        f.name: float(v).hex() if isinstance(v, float) else v
        for f in dataclasses.fields(cost)
        for v in [getattr(cost, f.name)]
    }


class TestCostMemo:
    """A kernel's cost for one (feature_dim, direction) is built once."""

    # Below, at and above the warp size: coalesced thread groups, one full
    # warp, vector loads.
    DIMS = (SPEC.warp_size // 4, SPEC.warp_size, 3 * SPEC.warp_size)

    @staticmethod
    def _skewed_adj():
        # Edges fan into a few columns, so the transpose's degree
        # distribution (the backward cost) differs from the forward one.
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 40, 200)
        cols = rng.integers(0, 4, 200)
        return CSRMatrix.from_edges(rows, cols, (40, 40))

    @pytest.mark.parametrize("kernel_cls", [SlicedParallelAggregation, GESpMMAggregation])
    def test_memoized_costs_match_a_fresh_kernel(self, kernel_cls):
        adj = self._skewed_adj()
        kernel = kernel_cls(adj, SPEC, scale=1000.0)
        queries = [(dim, direction) for dim in self.DIMS for direction in ("fwd", "bwd")]
        # Warm every entry, then ask again in the reverse order.
        for dim, direction in queries + queries[::-1]:
            fresh = kernel_cls(adj, SPEC, scale=1000.0)
            if direction == "fwd":
                got, want = kernel.forward_cost((40, dim)), fresh.forward_cost((40, dim))
            else:
                got, want = kernel.backward_cost((40, dim)), fresh.backward_cost((40, dim))
            assert _cost_fields(got) == _cost_fields(want), (dim, direction)

    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_cost_is_built_once_per_width_and_direction(self, kernel_cls):
        kernel = kernel_cls(self._skewed_adj(), SPEC)
        for dim in self.DIMS:
            assert kernel.forward_cost((40, dim)) is kernel.forward_cost((40, dim))
            assert kernel.backward_cost((40, dim)) is kernel.backward_cost((40, dim))
        assert kernel.forward_cost((40, 8)) is not kernel.forward_cost((40, 16))

    @pytest.mark.parametrize("kernel_cls", [SlicedParallelAggregation, GESpMMAggregation])
    def test_directions_differ_on_a_skewed_adjacency(self, kernel_cls):
        kernel = kernel_cls(self._skewed_adj(), SPEC)
        fwd, bwd = kernel.forward_cost((40, 8)), kernel.backward_cost((40, 8))
        assert fwd.name.endswith("_fwd") and bwd.name.endswith("_bwd")
        fwd_fields, bwd_fields = _cost_fields(fwd), _cost_fields(bwd)
        del fwd_fields["name"], bwd_fields["name"]
        assert fwd_fields != bwd_fields

    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_backward_numerics_after_backward_cost(self, kernel_cls):
        adj = self._skewed_adj()
        kernel = kernel_cls(adj, SPEC)
        kernel.backward_cost((40, 3))
        grad = np.random.default_rng(2).random((40, 3)).astype(np.float32)
        assert np.allclose(kernel.backward(grad), adj.to_dense().T @ grad, atol=1e-4)
