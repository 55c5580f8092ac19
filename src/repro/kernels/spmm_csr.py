"""GE-SpMM-style CSR aggregation (the PyGT-G baseline kernel).

GE-SpMM [Huang et al., SC'20] assigns one warp to each adjacency row, caches
the row's column indices/values in shared memory and lets the warp's threads
cover the feature dimension, so feature-row accesses are coalesced.  Two
properties matter for the reproduction:

- threads beyond the feature dimension idle
  (``warp_execution_efficiency = min(32, F)/32``, §3.2);
- every row — including empty ones — occupies a warp slot and issues its
  row-extent reads, which is where the redundant accesses on extremely
  sparse graphs (Youtube) come from (§5.3), and per-row work follows the
  skewed degree distribution, producing the load imbalance of Fig. 12.

The backward pass runs the same kernel over the CSC transpose, which is why
PyGT-G keeps both CSR and CSC resident (§5.2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpu.kernel_cost import CATEGORY_AGGREGATION, KernelCost
from repro.gpu.load_balance import analyze_block_work, block_work_from_row_nnz
from repro.gpu.memory_model import FLOAT_BYTES, contiguous_bytes_cost, row_access
from repro.gpu.spec import GPUSpec
from repro.gpu.warp_model import baseline_active_thread_ratio
from repro.graph.csr import CSRMatrix
from repro.kernels.base import BaseAggregationKernel

#: bytes per adjacency non-zero staged through shared memory (index + value)
_NNZ_BYTES = 8
#: adjacency rows handled per thread block (8 warps of one row each)
_ROWS_PER_BLOCK = 8
#: achieved fraction of sustained bandwidth: shared-memory row caching and
#: warp-coalesced feature access, but still per-row irregular column gathers
_GESPMM_BANDWIDTH_EFFICIENCY = 0.45


class GESpMMAggregation(BaseAggregationKernel):
    """Row-per-warp CSR SpMM with shared-memory caching of sparse rows."""

    name = "spmm_csr_gespmm"

    def __init__(
        self,
        adjacency: CSRMatrix,
        spec: Optional[GPUSpec] = None,
        scale: float = 1.0,
    ) -> None:
        super().__init__(adjacency, spec, scale)
        self._row_nnz = adjacency.row_nnz()
        self._transpose_row_nnz: Optional[np.ndarray] = None

    # -- cost -----------------------------------------------------------------
    def _build_cost(self, feature_dim: int, direction: str) -> KernelCost:
        row_nnz = self._row_nnz if direction == "fwd" else self._transposed_row_nnz()
        nnz = float(row_nnz.sum()) * self.scale
        rows = float(len(row_nnz)) * self.scale

        per_access = row_access(feature_dim, self.spec)
        feature_requests = nnz * per_access.requests
        feature_transactions = nnz * per_access.transactions
        adj_cost = contiguous_bytes_cost(nnz * _NNZ_BYTES, self.spec)
        # Row bookkeeping (indptr reads, row base pointers): one transaction per
        # row, issued even for empty rows — the redundant-access effect.
        row_overhead_transactions = rows
        write_cost = contiguous_bytes_cost(rows * feature_dim * FLOAT_BYTES, self.spec)

        balance = analyze_block_work(
            block_work_from_row_nnz(row_nnz, _ROWS_PER_BLOCK), self.spec, scale=self.scale
        )

        return KernelCost(
            name=f"{self.name}_{direction}",
            category=CATEGORY_AGGREGATION,
            flops=2.0 * nnz * feature_dim,
            global_read_bytes=nnz * (feature_dim * FLOAT_BYTES + _NNZ_BYTES),
            global_write_bytes=rows * feature_dim * FLOAT_BYTES,
            mem_requests=feature_requests + adj_cost.requests + write_cost.requests,
            mem_transactions=feature_transactions
            + adj_cost.transactions
            + row_overhead_transactions
            + write_cost.transactions,
            active_thread_ratio=baseline_active_thread_ratio(feature_dim, self.spec),
            imbalance=balance.imbalance,
            num_blocks=max(1, int(np.ceil(rows / _ROWS_PER_BLOCK))),
            shared_mem_bytes=min(
                self.spec.shared_mem_per_sm_kb * 1024.0, _ROWS_PER_BLOCK * 32 * _NNZ_BYTES
            ),
            launches=1,
            bandwidth_efficiency=_GESPMM_BANDWIDTH_EFFICIENCY,
        )

    def _transposed_row_nnz(self) -> np.ndarray:
        """Row sizes of ``A^T``: the CSC column extents the backward reads."""
        if self._transpose_row_nnz is None:
            self._transpose_row_nnz = np.diff(self._backward_mat.indptr).astype(np.int64)
        return self._transpose_row_nnz
