"""Exactness of the sort-based edge-key path.

``repro.graph.keys`` must return exactly what the NumPy set routines it
replaces return, and ``CSRMatrix.from_edge_keys`` exactly what the former
COO -> scipy route built; both are checked against those references here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import COOMatrix, CSRMatrix, SlicedCSRMatrix
from repro.graph import keys as keyset

DTYPES = st.sampled_from([np.int64, np.int32])


@st.composite
def int_arrays(draw):
    """Empty, single-element, unsorted and duplicated 1-D integer arrays."""
    values = draw(st.lists(st.integers(-50, 50), max_size=40))
    return np.array(values, dtype=draw(DTYPES))


def assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestKeySetAlgebra:
    @settings(max_examples=150, deadline=None)
    @given(values=int_arrays())
    def test_unique_matches_numpy(self, values):
        assert_same(keyset.unique(values), np.unique(values))

    @settings(max_examples=150, deadline=None)
    @given(a=int_arrays(), b=int_arrays())
    def test_binary_ops_match_numpy(self, a, b):
        assert_same(keyset.union(a, b), np.union1d(a, b))
        assert_same(keyset.intersect(a, b), np.intersect1d(a, b))
        assert_same(keyset.difference(a, b), np.setdiff1d(a, b))

    def test_edge_cases(self):
        empty = np.zeros(0, dtype=np.int64)
        one = np.array([7], dtype=np.int64)
        assert_same(keyset.unique(empty), np.unique(empty))
        assert_same(keyset.unique(one), one)
        assert_same(keyset.union(empty, one), one)
        assert_same(keyset.intersect(one, empty), np.intersect1d(one, empty))
        assert_same(keyset.difference(one, one), np.setdiff1d(one, one))
        assert_same(keyset.unique([3, 1, 3]), np.unique([3, 1, 3]))


def reference_from_edge_keys(keys: np.ndarray, shape) -> CSRMatrix:
    """The route ``from_edge_keys`` used before: divmod -> COO -> scipy CSR."""
    rows, cols = np.divmod(np.asarray(keys, dtype=np.int64), shape[1])
    return COOMatrix.from_edges(rows, cols, shape).to_csr()


@st.composite
def keyed_shapes(draw):
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(1, 12))
    # Keys only in the leading rows leave trailing rows empty.
    used_rows = draw(st.integers(0, n_rows))
    bound = used_rows * n_cols
    keys = draw(st.lists(st.integers(0, max(bound - 1, 0)), max_size=60)) if bound else []
    return np.array(keys, dtype=draw(DTYPES)), (n_rows, n_cols)


class TestDirectCSRBuild:
    @settings(max_examples=200, deadline=None)
    @given(case=keyed_shapes())
    def test_matches_coo_route(self, case):
        keys, shape = case
        got = CSRMatrix.from_edge_keys(keys, shape)
        want = reference_from_edge_keys(keys, shape)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            assert_same(getattr(got, name), getattr(want, name))

    def test_empty_and_trailing_empty_rows(self):
        empty = CSRMatrix.from_edge_keys(np.zeros(0, dtype=np.int64), (4, 3))
        assert empty.nnz == 0 and list(empty.indptr) == [0, 0, 0, 0, 0]
        csr = CSRMatrix.from_edge_keys([4, 1, 4], (4, 3))
        assert list(csr.indptr) == [0, 1, 2, 2, 2]
        assert list(csr.indices) == [1, 1]

    @pytest.mark.parametrize("keys", [[-2, 4], [9], [0, 12]])
    def test_out_of_range_keys_rejected(self, keys):
        with pytest.raises(ValueError, match="edge keys must be in"):
            CSRMatrix.from_edge_keys(keys, (3, 3))

    def test_from_edges_rejects_column_aliasing_into_next_row(self):
        # (0, 3) would form key 3 == (1, 0) in a 3x3 matrix.
        with pytest.raises(ValueError, match="cols must be in"):
            CSRMatrix.from_edges([0], [3], (3, 3))
        with pytest.raises(ValueError, match="rows must be in"):
            CSRMatrix.from_edges([-1], [1], (3, 3))

    def test_from_edges_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            CSRMatrix.from_edges([0, 1], [1], (3, 3))


class TestNegativeCoordinatesRejected:
    def test_coo_negative_row(self):
        with pytest.raises(ValueError, match="coordinates must lie in"):
            COOMatrix.from_edges([-1, 0], [1, 2], (3, 3))

    def test_coo_negative_col(self):
        with pytest.raises(ValueError, match="coordinates must lie in"):
            COOMatrix.from_edges([0, 1], [-1, 2], (3, 3))

    def test_csr_negative_index(self):
        with pytest.raises(ValueError, match="column indices must be in"):
            CSRMatrix(
                indptr=np.array([0, 1, 1, 1]),
                indices=np.array([-1]),
                data=np.ones(1, dtype=np.float32),
                shape=(3, 3),
            )

    def test_csr_negative_edge_key(self):
        with pytest.raises(ValueError, match="edge keys must be in"):
            CSRMatrix.from_edge_keys([-2, 4], (3, 3))

    def test_sliced_negative_row(self):
        with pytest.raises(ValueError, match="row indices must be in"):
            SlicedCSRMatrix(
                row_indices=np.array([-1]),
                slice_offsets=np.array([0, 1]),
                col_indices=np.array([0]),
                values=np.ones(1, dtype=np.float32),
                shape=(3, 3),
            )

    @pytest.mark.parametrize("col", [-1, 3])
    def test_sliced_column_out_of_range(self, col):
        with pytest.raises(ValueError, match="column indices must be in"):
            SlicedCSRMatrix(
                row_indices=np.array([0]),
                slice_offsets=np.array([0, 1]),
                col_indices=np.array([col]),
                values=np.ones(1, dtype=np.float32),
                shape=(3, 3),
            )
