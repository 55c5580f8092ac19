"""Tests for COO / CSR / sliced CSR sparse formats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import COOMatrix, CSRMatrix, SlicedCSRMatrix


def random_edges(seed: int, n: int, m: int):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    mask = rows != cols
    return rows[mask], cols[mask]


class TestCOO:
    def test_from_edges_deduplicates(self):
        coo = COOMatrix.from_edges([0, 0, 1], [1, 1, 2], (3, 3))
        assert coo.nnz == 2

    def test_to_dense_matches_entries(self):
        coo = COOMatrix.from_edges([0, 2], [1, 0], (3, 3))
        dense = coo.to_dense()
        assert dense[0, 1] == 1.0 and dense[2, 0] == 1.0
        assert dense.sum() == 2.0

    def test_nbytes_formula(self):
        coo = COOMatrix.from_edges([0, 2], [1, 0], (3, 3))
        assert coo.nbytes == 3 * coo.nnz * 4

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix(
                rows=np.array([5]), cols=np.array([0]),
                values=np.array([1.0], dtype=np.float32), shape=(3, 3),
            )

    def test_roundtrip_through_csr(self):
        rows, cols = random_edges(0, 20, 60)
        coo = COOMatrix.from_edges(rows, cols, (20, 20))
        assert np.allclose(coo.to_csr().to_dense(), coo.to_dense())

    def test_edge_keys_sorted(self):
        rows, cols = random_edges(1, 15, 40)
        keys = COOMatrix.from_edges(rows, cols, (15, 15)).edge_keys()
        assert np.all(np.diff(keys) > 0)


class TestCSR:
    def test_from_edges_matches_scipy(self, random_csr):
        dense = random_csr.to_dense()
        assert dense.shape == (30, 30)
        assert random_csr.nnz == int(dense.sum())

    def test_row_nnz_sums_to_nnz(self, random_csr):
        assert int(random_csr.row_nnz().sum()) == random_csr.nnz

    def test_matmul_dense_matches_numpy(self, random_csr):
        x = np.random.default_rng(0).random((30, 5)).astype(np.float32)
        expected = random_csr.to_dense() @ x
        assert np.allclose(random_csr.matmul_dense(x), expected, atol=1e-5)

    def test_matmul_dimension_mismatch(self, random_csr):
        with pytest.raises(ValueError):
            random_csr.matmul_dense(np.zeros((5, 5), dtype=np.float32))

    def test_transpose_is_involution(self, random_csr):
        assert np.allclose(random_csr.transpose().transpose().to_dense(), random_csr.to_dense())

    def test_empty_matrix(self):
        empty = CSRMatrix.empty((4, 4))
        assert empty.nnz == 0
        assert np.allclose(empty.matmul_dense(np.ones((4, 2), dtype=np.float32)), 0.0)

    def test_nbytes_formula(self, random_csr):
        assert random_csr.nbytes == (2 * random_csr.nnz + random_csr.num_rows + 1) * 4

    def test_from_edge_keys_roundtrip(self, random_csr):
        rebuilt = CSRMatrix.from_edge_keys(random_csr.edge_keys(), random_csr.shape)
        assert np.allclose(rebuilt.to_dense(), random_csr.to_dense())

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix(
                indptr=np.array([0, 2]), indices=np.array([0]),
                data=np.array([1.0], dtype=np.float32), shape=(1, 3),
            )


class TestSlicedCSR:
    @pytest.mark.parametrize("capacity", [1, 2, 4, 32])
    def test_roundtrip(self, random_csr, capacity):
        sliced = SlicedCSRMatrix.from_csr(random_csr, slice_capacity=capacity)
        assert sliced.nnz == random_csr.nnz
        assert np.allclose(sliced.to_csr().to_dense(), random_csr.to_dense())

    def test_slice_capacity_respected(self, random_csr):
        sliced = SlicedCSRMatrix.from_csr(random_csr, slice_capacity=3)
        assert sliced.slice_nnz().max() <= 3

    def test_num_slices_lower_bound(self, random_csr):
        sliced = SlicedCSRMatrix.from_csr(random_csr, slice_capacity=4)
        expected = int(np.sum(-(-random_csr.row_nnz() // 4)))
        assert sliced.num_slices == expected

    def test_empty_rows_have_no_slices(self):
        csr = CSRMatrix.from_edges(np.array([0, 0]), np.array([1, 2]), (5, 5))
        sliced = SlicedCSRMatrix.from_csr(csr, slice_capacity=1)
        assert set(sliced.row_indices.tolist()) == {0}

    def test_space_formula(self, random_csr):
        sliced = SlicedCSRMatrix.from_csr(random_csr, slice_capacity=2)
        assert sliced.nbytes == (2 * sliced.nnz + 2 * sliced.num_slices + 1) * 4

    @pytest.mark.parametrize("capacity", [1, 3, 32])
    def test_slice_count_bytes_match_the_built_matrix(self, capacity):
        """``csr_nbytes`` sizes a matrix from its slice count alone."""
        n = max(5, 2 * capacity)
        row_sizes = [0, capacity, 0, capacity + 1, 2 * capacity]  # with empty rows
        rows = np.repeat(np.arange(len(row_sizes)), row_sizes)
        cols = np.concatenate([np.arange(k) for k in row_sizes])
        matrices = [
            CSRMatrix.empty((n, n)),
            CSRMatrix.from_edges(rows, cols, (n, n)),
        ] + [
            CSRMatrix.from_edges(np.zeros(k, dtype=np.int64), np.arange(k), (n, n))
            for k in (capacity, capacity + 1, 2 * capacity)
        ]
        for csr in matrices:
            built = SlicedCSRMatrix.from_csr(csr, slice_capacity=capacity)
            assert SlicedCSRMatrix.csr_nbytes(csr, capacity) == built.nbytes

    def test_space_between_csr_and_coo_for_default_capacity(self, random_csr):
        sliced = SlicedCSRMatrix.from_csr(random_csr)
        assert random_csr.nbytes <= sliced.nbytes <= random_csr.to_coo().nbytes + 4

    def test_matmul_matches_csr(self, random_csr):
        x = np.random.default_rng(1).random((30, 3)).astype(np.float32)
        sliced = SlicedCSRMatrix.from_csr(random_csr, slice_capacity=2)
        assert np.allclose(sliced.matmul_dense(x), random_csr.matmul_dense(x), atol=1e-5)

    def test_empty_matrix(self):
        sliced = SlicedCSRMatrix.from_csr(CSRMatrix.empty((3, 3)))
        assert sliced.num_slices == 0 and sliced.nnz == 0

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        capacity=st.integers(1, 8),
        n=st.integers(2, 25),
        m=st.integers(0, 80),
    )
    def test_property_roundtrip_and_capacity(self, seed, capacity, n, m):
        """Slicing any CSR matrix is lossless and respects the capacity bound."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n, size=m)
        cols = rng.integers(0, n, size=m)
        csr = CSRMatrix.from_edges(rows, cols, (n, n))
        sliced = SlicedCSRMatrix.from_csr(csr, slice_capacity=capacity)
        assert np.allclose(sliced.to_csr().to_dense(), csr.to_dense())
        if sliced.num_slices:
            assert sliced.slice_nnz().max() <= capacity
            assert sliced.slice_nnz().min() >= 1
