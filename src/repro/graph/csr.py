"""Compressed Sparse Row (CSR) format.

CSR is the canonical layout GNN aggregation kernels (GE-SpMM, GNNAdvisor)
operate on: ``indptr`` gives per-row extents, ``indices``/``data`` the
column coordinates and values.  The paper's GE-SpMM baseline additionally
requires the CSC transpose for backward propagation (§5.2), which is exposed
here via :meth:`CSRMatrix.transpose`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.coo import INDEX_BYTES, COOMatrix
from repro.graph.keys import unique
from repro.utils.validation import check_array


@dataclass(frozen=True)
class CSRMatrix:
    """An immutable CSR sparse matrix backed by NumPy arrays.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n_rows + 1``; row ``r`` owns the slice
        ``indices[indptr[r]:indptr[r + 1]]``.
    indices:
        ``int64`` column indices, length ``nnz``.
    data:
        ``float32`` stored values, length ``nnz``.
    shape:
        ``(n_rows, n_cols)``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]

    def __post_init__(self) -> None:
        indptr = check_array("indptr", self.indptr, ndim=1, dtype_kind="iu")
        indices = check_array("indices", self.indices, ndim=1, dtype_kind="iu")
        data = check_array("data", self.data, ndim=1, dtype_kind="f")
        n_rows, n_cols = self.shape
        if len(indptr) != n_rows + 1:
            raise ValueError(f"indptr must have length n_rows+1={n_rows + 1}, got {len(indptr)}")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(indices) != len(data):
            raise ValueError("indices and data must have equal length")
        if len(indices) and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValueError(
                f"column indices must be in [0, {n_cols}), got "
                f"[{indices.min()}, {indices.max()}]"
            )
        object.__setattr__(self, "indptr", np.ascontiguousarray(indptr, dtype=np.int64))
        object.__setattr__(self, "indices", np.ascontiguousarray(indices, dtype=np.int64))
        object.__setattr__(self, "data", np.ascontiguousarray(data, dtype=np.float32))

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_scipy(cls, mat: sp.spmatrix) -> "CSRMatrix":
        csr = mat.tocsr()
        csr.sort_indices()
        return cls(
            indptr=csr.indptr.astype(np.int64),
            indices=csr.indices.astype(np.int64),
            data=csr.data.astype(np.float32),
            shape=csr.shape,
        )

    @classmethod
    def from_edges(
        cls, rows: np.ndarray, cols: np.ndarray, shape: Tuple[int, int]
    ) -> "CSRMatrix":
        """Build an unweighted CSR adjacency from edge lists (duplicates kept once)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        n_rows, n_cols = shape
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError(
                f"rows and cols must be 1-D of equal length, got shapes {rows.shape}/{cols.shape}"
            )
        # Check each coordinate before forming keys: an out-of-range column
        # would otherwise alias into the next row.
        if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError(f"rows must be in [0, {n_rows}), got [{rows.min()}, {rows.max()}]")
        if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError(f"cols must be in [0, {n_cols}), got [{cols.min()}, {cols.max()}]")
        return cls.from_edge_keys(rows * n_cols + cols, shape)

    @classmethod
    def from_edge_keys(cls, keys: np.ndarray, shape: Tuple[int, int]) -> "CSRMatrix":
        """Build from flat ``row * n_cols + col`` edge keys (values set to 1).

        Keys may be unsorted and repeated.  Sorted distinct keys are already
        in CSR order, so the arrays follow directly: columns are the keys
        modulo ``n_cols`` and ``indptr`` is the running count of keys per row.
        """
        n_rows, n_cols = shape
        keys = unique(np.asarray(keys, dtype=np.int64))
        if len(keys) and (keys[0] < 0 or keys[-1] >= n_rows * n_cols):
            raise ValueError(
                f"edge keys must be in [0, {n_rows * n_cols}) for shape {tuple(shape)}, "
                f"got [{keys[0]}, {keys[-1]}]"
            )
        rows, cols = np.divmod(keys, n_cols)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        return cls(
            indptr=indptr,
            indices=cols,
            data=np.ones(len(cols), dtype=np.float32),
            shape=shape,
        )

    @classmethod
    def empty(cls, shape: Tuple[int, int]) -> "CSRMatrix":
        return cls(
            indptr=np.zeros(shape[0] + 1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int64),
            data=np.zeros(0, dtype=np.float32),
            shape=shape,
        )

    # -- properties --------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(len(self.data))

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def num_cols(self) -> int:
        return self.shape[1]

    @property
    def nbytes(self) -> int:
        """Storage per the paper's accounting: ``2*nnz + n_rows + 1`` elements."""
        return self.storage_bytes(self.nnz, self.num_rows)

    @staticmethod
    def storage_bytes(nnz: int, num_rows: int) -> int:
        """Bytes of a CSR with ``nnz`` elements over ``num_rows`` rows."""
        return (2 * nnz + num_rows + 1) * INDEX_BYTES

    def row_nnz(self) -> np.ndarray:
        """Per-row number of stored elements (the out-degree for adjacencies)."""
        return np.diff(self.indptr)

    def edge_keys(self) -> np.ndarray:
        """Sorted flat ``row * n_cols + col`` keys identifying each edge."""
        rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), self.row_nnz())
        keys = rows * self.num_cols + self.indices
        return np.sort(keys)

    # -- conversions & numerics -------------------------------------------
    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def to_coo(self) -> COOMatrix:
        return COOMatrix.from_scipy(self.to_scipy())

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.to_scipy().todense(), dtype=np.float32)

    def transpose(self) -> "CSRMatrix":
        """Return the transpose as CSR (equivalently, this matrix in CSC)."""
        return CSRMatrix.from_scipy(self.to_scipy().T.tocsr())

    def matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        """Reference sparse @ dense product (the aggregation numerics)."""
        dense = np.asarray(dense, dtype=np.float32)
        if dense.shape[0] != self.num_cols:
            raise ValueError(
                f"dimension mismatch: sparse is {self.shape}, dense is {dense.shape}"
            )
        return np.asarray(self.to_scipy() @ dense, dtype=np.float32)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
