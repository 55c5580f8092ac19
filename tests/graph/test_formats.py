"""Tests for COO / CSR / sliced CSR sparse formats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DEFAULT_SLICE_CAPACITY, COOMatrix, CSRMatrix, SlicedCSRMatrix


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


def wide_csr() -> CSRMatrix:
    """An 80x80 CSR whose rows hold 0, 1, 32, 33, 64 and 70 non-zeros, so
    rows span zero to three slices of :data:`DEFAULT_SLICE_CAPACITY`."""
    row_sizes = [0, 1, DEFAULT_SLICE_CAPACITY, 0, DEFAULT_SLICE_CAPACITY + 1, 64, 70, 3]
    rows = np.repeat(np.arange(len(row_sizes)), row_sizes)
    cols = np.concatenate([np.arange(k) for k in row_sizes])
    return CSRMatrix.from_edges(rows, cols, (80, 80))


class TestSlicedCSR:
    @pytest.mark.parametrize("source", ["wide", "random"])
    def test_roundtrip(self, source, random_csr):
        csr = wide_csr() if source == "wide" else random_csr
        sliced = SlicedCSRMatrix.from_csr(csr)
        assert sliced.nnz == csr.nnz
        assert np.allclose(sliced.to_csr().to_dense(), csr.to_dense())

    def test_slice_capacity_respected(self):
        sliced = SlicedCSRMatrix.from_csr(wide_csr())
        assert sliced.slice_nnz().max() == DEFAULT_SLICE_CAPACITY

    def test_num_slices_lower_bound(self):
        csr = wide_csr()
        sliced = SlicedCSRMatrix.from_csr(csr)
        expected = int(np.sum(-(-csr.row_nnz() // DEFAULT_SLICE_CAPACITY)))
        assert sliced.num_slices == expected == 0 + 1 + 1 + 0 + 2 + 2 + 3 + 1

    def test_empty_rows_have_no_slices(self):
        sliced = SlicedCSRMatrix.from_csr(wide_csr())
        assert set(sliced.row_indices.tolist()) == {1, 2, 4, 5, 6, 7}

    def test_space_formula(self):
        sliced = SlicedCSRMatrix.from_csr(wide_csr())
        assert sliced.nbytes == (2 * sliced.nnz + 2 * sliced.num_slices + 1) * 4

    def test_space_between_csr_and_coo_for_default_capacity(self, random_csr):
        sliced = SlicedCSRMatrix.from_csr(random_csr)
        assert random_csr.nbytes <= sliced.nbytes <= random_csr.to_coo().nbytes + 4

    def test_matmul_matches_csr(self):
        csr = wide_csr()
        x = np.random.default_rng(1).random((80, 3)).astype(np.float32)
        sliced = SlicedCSRMatrix.from_csr(csr)
        assert np.allclose(sliced.matmul_dense(x), csr.matmul_dense(x), atol=1e-5)

    def test_empty_matrix(self):
        sliced = SlicedCSRMatrix.from_csr(CSRMatrix.empty((3, 3)))
        assert sliced.num_slices == 0 and sliced.nnz == 0

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        rows_used=st.integers(1, 4),
        n=st.integers(2, 90),
        m=st.integers(0, 300),
    )
    def test_property_roundtrip_and_capacity(self, seed, rows_used, n, m):
        """Slicing any CSR matrix is lossless and respects the capacity bound
        (edges crowd into the first ``rows_used`` rows, so rows of more than
        one slice are common)."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, min(rows_used, n), size=m)
        cols = rng.integers(0, n, size=m)
        csr = CSRMatrix.from_edges(rows, cols, (n, n))
        sliced = SlicedCSRMatrix.from_csr(csr)
        assert np.allclose(sliced.to_csr().to_dense(), csr.to_dense())
        if sliced.num_slices:
            assert sliced.slice_nnz().max() <= DEFAULT_SLICE_CAPACITY
            assert sliced.slice_nnz().min() >= 1
