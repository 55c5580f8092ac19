"""Coordinate (COO) sparse-matrix format.

COO is the representation PyTorch Geometric ships graphs in (``edge_index``),
so the PyGT baseline transfers and aggregates from COO.  The format stores
three parallel arrays (row, col, value); see §4.1 of the paper for the space
comparison against CSR and the sliced CSR introduced by PiPAD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import check_array

#: bytes used per stored index / value element (int32 indices, float32 values)
INDEX_BYTES = 4
VALUE_BYTES = 4


@dataclass(frozen=True)
class COOMatrix:
    """An immutable COO sparse matrix.

    Attributes
    ----------
    rows, cols:
        ``int64`` arrays of length ``nnz`` with the coordinates of each
        stored element.
    values:
        ``float32`` array of length ``nnz``.
    shape:
        ``(n_rows, n_cols)``.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: Tuple[int, int]

    def __post_init__(self) -> None:
        rows = check_array("rows", self.rows, ndim=1, dtype_kind="iu")
        cols = check_array("cols", self.cols, ndim=1, dtype_kind="iu")
        values = check_array("values", self.values, ndim=1, dtype_kind="f")
        if not (len(rows) == len(cols) == len(values)):
            raise ValueError(
                f"rows/cols/values must have equal length, got {len(rows)}/{len(cols)}/{len(values)}"
            )
        n_rows, n_cols = self.shape
        if len(rows) and (
            rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols
        ):
            raise ValueError(
                f"coordinates must lie in [0, {n_rows}) x [0, {n_cols}), got rows "
                f"[{rows.min()}, {rows.max()}] and cols [{cols.min()}, {cols.max()}]"
            )
        object.__setattr__(self, "rows", np.ascontiguousarray(rows, dtype=np.int64))
        object.__setattr__(self, "cols", np.ascontiguousarray(cols, dtype=np.int64))
        object.__setattr__(self, "values", np.ascontiguousarray(values, dtype=np.float32))

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        shape: Tuple[int, int],
        values: np.ndarray | None = None,
        *,
        deduplicate: bool = True,
    ) -> "COOMatrix":
        """Build a COO matrix from edge lists, optionally deduplicating.

        Duplicate coordinates keep a single entry with value 1 (graphs here
        are unweighted adjacency structures; weights are produced later by
        GCN normalization).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if values is None:
            values = np.ones(len(rows), dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        if deduplicate and len(rows):
            keys = rows * shape[1] + cols
            order = np.argsort(keys, kind="stable")
            keys, rows, cols, values = keys[order], rows[order], cols[order], values[order]
            keep = np.concatenate(([True], keys[1:] != keys[:-1]))
            rows, cols, values = rows[keep], cols[keep], values[keep]
        return cls(rows=rows, cols=cols, values=values, shape=shape)

    @classmethod
    def from_scipy(cls, mat: sp.spmatrix) -> "COOMatrix":
        coo = mat.tocoo()
        return cls(
            rows=coo.row.astype(np.int64),
            cols=coo.col.astype(np.int64),
            values=coo.data.astype(np.float32),
            shape=coo.shape,
        )

    # -- properties --------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored (non-zero) elements."""
        return int(len(self.values))

    @property
    def nbytes(self) -> int:
        """Storage footprint per the paper's accounting: ``3 * nnz`` elements."""
        return self.nnz * (2 * INDEX_BYTES + VALUE_BYTES)

    # -- conversions -------------------------------------------------------
    def to_scipy(self) -> sp.coo_matrix:
        return sp.coo_matrix((self.values, (self.rows, self.cols)), shape=self.shape)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float32)
        np.add.at(dense, (self.rows, self.cols), self.values)
        return dense

    def to_csr(self) -> "CSRMatrix":
        from repro.graph.csr import CSRMatrix

        return CSRMatrix.from_scipy(self.to_scipy().tocsr())

    def edge_keys(self) -> np.ndarray:
        """Return sorted ``row * n_cols + col`` keys identifying each edge."""
        keys = self.rows * self.shape[1] + self.cols
        return np.sort(keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"
