"""PiPAD's slice-based graph representation (sliced CSR), §4.1 of the paper.

Each CSR row is divided into *slices* holding at most
:data:`DEFAULT_SLICE_CAPACITY` (32) non-zeros.  The ``Row Offsets`` array of
CSR is replaced by two arrays:

- ``row_indices`` (RI): the row index of every slice, and
- ``slice_offsets`` (SO): the offset of the first element of each slice in
  the shared ``col_indices``/``values`` arrays.

The finer granularity (a) makes the slice the unit of overlap extraction and
transfer, and (b) bounds the per-warp work in the aggregation kernel, which
is what improves SpMM load balance (Fig. 12).  Space usage is
``2*nnz + 2*num_slices + 1`` elements versus CSR's ``2*nnz + n_rows + 1``
and COO's ``3*nnz`` (paper §4.1, "Space overhead").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.graph.coo import INDEX_BYTES
from repro.graph.csr import CSRMatrix
from repro.utils.validation import check_array

#: maximum number of non-zeros held by one slice (paper §4.1: 32); every
#: sliced CSR, its transfer size and the sliced kernel's cost use it
DEFAULT_SLICE_CAPACITY = 32


@dataclass(frozen=True)
class SlicedCSRMatrix:
    """An immutable sliced-CSR sparse matrix.

    Attributes
    ----------
    row_indices:
        ``int64`` array of length ``num_slices``: the row each slice belongs to.
    slice_offsets:
        ``int64`` array of length ``num_slices + 1``: offsets into
        ``col_indices`` delimiting each slice.
    col_indices, values:
        Shared element arrays, identical in content to the source CSR.
    shape:
        ``(n_rows, n_cols)``.
    """

    row_indices: np.ndarray
    slice_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    shape: Tuple[int, int]

    def __post_init__(self) -> None:
        row_indices = check_array("row_indices", self.row_indices, ndim=1, dtype_kind="iu")
        slice_offsets = check_array("slice_offsets", self.slice_offsets, ndim=1, dtype_kind="iu")
        col_indices = check_array("col_indices", self.col_indices, ndim=1, dtype_kind="iu")
        values = check_array("values", self.values, ndim=1, dtype_kind="f")
        if len(slice_offsets) != len(row_indices) + 1:
            raise ValueError("slice_offsets must have length num_slices + 1")
        if len(slice_offsets) and (slice_offsets[0] != 0 or slice_offsets[-1] != len(col_indices)):
            raise ValueError("slice_offsets must start at 0 and end at nnz")
        sizes = np.diff(slice_offsets)
        if np.any(sizes <= 0) and len(sizes):
            raise ValueError("every slice must hold at least one element")
        if len(sizes) and sizes.max(initial=0) > DEFAULT_SLICE_CAPACITY:
            raise ValueError(f"a slice exceeds {DEFAULT_SLICE_CAPACITY} elements")
        n_rows, n_cols = self.shape
        if len(row_indices) and (row_indices.min() < 0 or row_indices.max() >= n_rows):
            raise ValueError(
                f"row indices must be in [0, {n_rows}), got "
                f"[{row_indices.min()}, {row_indices.max()}]"
            )
        if len(col_indices) and (col_indices.min() < 0 or col_indices.max() >= n_cols):
            raise ValueError(
                f"column indices must be in [0, {n_cols}), got "
                f"[{col_indices.min()}, {col_indices.max()}]"
            )
        object.__setattr__(self, "row_indices", np.ascontiguousarray(row_indices, dtype=np.int64))
        object.__setattr__(
            self, "slice_offsets", np.ascontiguousarray(slice_offsets, dtype=np.int64)
        )
        object.__setattr__(self, "col_indices", np.ascontiguousarray(col_indices, dtype=np.int64))
        object.__setattr__(self, "values", np.ascontiguousarray(values, dtype=np.float32))

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "SlicedCSRMatrix":
        """Slice a CSR matrix; the element arrays are shared, only the row
        bookkeeping changes, so slicing is O(num_slices)."""
        slices_per_row = -(-csr.row_nnz() // DEFAULT_SLICE_CAPACITY)  # ceil; 0 for empty rows
        num_slices = int(slices_per_row.sum())
        if num_slices == 0:
            return cls(
                row_indices=np.zeros(0, dtype=np.int64),
                slice_offsets=np.zeros(1, dtype=np.int64),
                col_indices=csr.indices,
                values=csr.data,
                shape=csr.shape,
            )
        row_of_slice = np.repeat(np.arange(csr.num_rows, dtype=np.int64), slices_per_row)
        # Position of each slice within its own row (0, 1, 2, ...).
        first_slice_of_row = np.concatenate(([0], np.cumsum(slices_per_row)[:-1]))
        within_row = np.arange(num_slices, dtype=np.int64) - np.repeat(
            first_slice_of_row, slices_per_row
        )
        starts = csr.indptr[row_of_slice] + within_row * DEFAULT_SLICE_CAPACITY
        slice_offsets = np.concatenate((starts, [csr.nnz])).astype(np.int64)
        return cls(
            row_indices=row_of_slice,
            slice_offsets=slice_offsets,
            col_indices=csr.indices,
            values=csr.data,
            shape=csr.shape,
        )

    @staticmethod
    def storage_bytes(nnz: int, num_slices: int) -> int:
        """Bytes of a sliced CSR with ``nnz`` elements in ``num_slices`` slices."""
        return (2 * nnz + 2 * num_slices + 1) * INDEX_BYTES

    # -- properties --------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(len(self.values))

    @property
    def num_slices(self) -> int:
        return int(len(self.row_indices))

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def num_cols(self) -> int:
        return self.shape[1]

    @property
    def nbytes(self) -> int:
        """Storage per the paper's accounting: ``2*nnz + 2*num_slices + 1``."""
        return self.storage_bytes(self.nnz, self.num_slices)

    def slice_nnz(self) -> np.ndarray:
        """Per-slice element counts (all ``<= DEFAULT_SLICE_CAPACITY``)."""
        return np.diff(self.slice_offsets)

    # -- conversions & numerics -------------------------------------------
    def to_csr(self) -> CSRMatrix:
        """Rebuild the equivalent CSR matrix (lossless round trip)."""
        row_counts = np.zeros(self.num_rows, dtype=np.int64)
        if self.num_slices:
            np.add.at(row_counts, self.row_indices, self.slice_nnz())
        indptr = np.concatenate(([0], np.cumsum(row_counts))).astype(np.int64)
        return CSRMatrix(
            indptr=indptr, indices=self.col_indices, data=self.values, shape=self.shape
        )

    def matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        """Reference sparse @ dense product via the CSR equivalent."""
        return self.to_csr().matmul_dense(dense)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SlicedCSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"num_slices={self.num_slices})"
        )
