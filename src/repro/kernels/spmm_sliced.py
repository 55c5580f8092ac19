"""PiPAD's dimension-aware parallel aggregation over sliced CSR (§4.2, Alg. 1).

One kernel instance aggregates the *overlap* adjacency of a snapshot group
against the group's coalescent feature matrix (``F_total = F * S_per``
columns), or an exclusive per-snapshot adjacency against that snapshot's own
features.  Three paper optimizations are modelled:

- **coalescent features**: one traversal of the shared topology serves all
  snapshots in the group, and one feature access covers ``F_total`` useful
  floats, curing bandwidth unsaturation for small dimensions;
- **thread-aware slice coalescing**: when ``F_total < 32`` the warp is split
  into up to four thread groups, each owning one slice, raising the active
  thread ratio;
- **vector memory instructions**: when ``F_total > 32`` wide loads shrink the
  number of warp-level requests (the request-burst cure).

Load balance follows the slice-capacity bound rather than the raw degree
distribution, which is the effect Fig. 12 measures.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from repro.gpu.kernel_cost import CATEGORY_AGGREGATION, KernelCost
from repro.gpu.load_balance import analyze_block_work, block_work_from_slice_nnz
from repro.gpu.memory_model import FLOAT_BYTES, contiguous_bytes_cost, row_access
from repro.gpu.spec import GPUSpec
from repro.gpu.warp_model import coalesced_active_thread_ratio
from repro.graph.csr import CSRMatrix
from repro.graph.keys import unique
from repro.graph.sliced_csr import DEFAULT_SLICE_CAPACITY, SlicedCSRMatrix
from repro.kernels.base import BaseAggregationKernel

#: bytes per adjacency non-zero staged through shared memory (index + value)
_NNZ_BYTES = 8
#: slices handled per thread block
_SLICES_PER_BLOCK = 8
#: extra write traffic factor for the final atomicAdd accumulation (Alg. 1, l. 30)
_ATOMIC_WRITE_PENALTY = 1.5
#: achieved fraction of sustained bandwidth: interleaved slice staging plus
#: coalescent feature rows make accesses wider and more regular than the
#: row-per-warp CSR kernel
_SLICED_BANDWIDTH_EFFICIENCY = 0.55


class SlicedParallelAggregation(BaseAggregationKernel):
    """Slice-grained aggregation kernel used by PiPAD's parallel GNN."""

    name = "spmm_sliced_parallel"

    def __init__(
        self,
        adjacency: CSRMatrix,
        spec: Optional[GPUSpec] = None,
        scale: float = 1.0,
        *,
        snapshots_coalesced: int = 1,
    ) -> None:
        super().__init__(adjacency, spec, scale)
        if snapshots_coalesced <= 0:
            raise ValueError("snapshots_coalesced must be > 0")
        self.snapshots_coalesced = snapshots_coalesced

    # -- cost -----------------------------------------------------------------
    @cached_property
    def sliced(self) -> SlicedCSRMatrix:
        """The adjacency in sliced CSR, built on the first cost."""
        return SlicedCSRMatrix.from_csr(self.adjacency)

    def _build_cost(self, feature_dim: int, direction: str) -> KernelCost:
        slice_nnz = self.sliced.slice_nnz() if direction == "fwd" else self._transposed_slice_nnz
        nnz = float(slice_nnz.sum()) * self.scale
        num_slices = float(len(slice_nnz)) * self.scale
        rows_touched = float(len(unique(self.sliced.row_indices))) * self.scale

        vectorized = feature_dim * FLOAT_BYTES > self.spec.request_bytes
        per_access = row_access(feature_dim, self.spec, vectorized=vectorized)
        feature_requests = nnz * per_access.requests
        feature_transactions = nnz * per_access.transactions

        # Slice data is laid out interleaved in shared memory so warps load it
        # with fully coalesced streaming accesses.
        adj_cost = contiguous_bytes_cost(nnz * _NNZ_BYTES, self.spec)
        # Slice bookkeeping: one transaction per slice (row index + offset),
        # no cost for empty rows because empty rows own no slices.
        slice_overhead_transactions = num_slices
        write_bytes = rows_touched * feature_dim * FLOAT_BYTES
        write_cost = contiguous_bytes_cost(write_bytes, self.spec)

        if feature_dim < self.spec.warp_size:
            active_ratio = coalesced_active_thread_ratio(feature_dim, self.spec)
        else:
            active_ratio = 1.0

        balance = analyze_block_work(
            block_work_from_slice_nnz(slice_nnz, _SLICES_PER_BLOCK), self.spec, scale=self.scale
        )

        return KernelCost(
            name=f"{self.name}_{direction}",
            category=CATEGORY_AGGREGATION,
            flops=2.0 * nnz * feature_dim,
            global_read_bytes=nnz * (feature_dim * FLOAT_BYTES + _NNZ_BYTES),
            global_write_bytes=write_bytes,
            mem_requests=feature_requests + adj_cost.requests + write_cost.requests,
            mem_transactions=feature_transactions
            + adj_cost.transactions
            + slice_overhead_transactions
            + write_cost.transactions * _ATOMIC_WRITE_PENALTY,
            active_thread_ratio=active_ratio,
            imbalance=balance.imbalance,
            num_blocks=max(1, int(np.ceil(num_slices / _SLICES_PER_BLOCK))),
            shared_mem_bytes=min(
                self.spec.shared_mem_per_sm_kb * 1024.0,
                _SLICES_PER_BLOCK * DEFAULT_SLICE_CAPACITY * _NNZ_BYTES,
            ),
            launches=1,
            bandwidth_efficiency=_SLICED_BANDWIDTH_EFFICIENCY,
        )

    @cached_property
    def _transposed_slice_nnz(self) -> np.ndarray:
        """Slice sizes of ``A^T`` (backward pass)."""
        transpose = CSRMatrix.from_scipy(self._backward_mat)
        return SlicedCSRMatrix.from_csr(transpose).slice_nnz()
