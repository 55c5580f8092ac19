"""PyG-style COO gather/scatter aggregation (the PyGT baseline kernel).

PyTorch Geometric's default message passing materializes per-edge messages:
a *gather* kernel reads the source-node feature row of every edge and a
*scatter-add* kernel accumulates messages into destination rows with atomic
additions.  Feature rows are accessed per edge with no reuse, so the traffic
is proportional to ``nnz`` full feature rows in both directions, each padded
to the 32-byte transaction granularity (the §3.2 inefficiencies apply in
full).
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel_cost import CATEGORY_AGGREGATION, KernelCost
from repro.gpu.memory_model import FLOAT_BYTES, contiguous_bytes_cost, row_access
from repro.kernels.base import BaseAggregationKernel

#: bytes per COO edge entry transferred to the kernel (two int32 indices)
_EDGE_INDEX_BYTES = 8
#: effective transaction multiplier for atomic read-modify-write accumulation
_ATOMIC_PENALTY = 2.0
#: achieved fraction of sustained bandwidth for fully irregular per-edge
#: gather/scatter traffic (uncached random accesses)
_COO_BANDWIDTH_EFFICIENCY = 0.30


class PyGCOOAggregation(BaseAggregationKernel):
    """Gather + scatter-add aggregation over a COO edge list."""

    name = "spmm_coo_pyg"

    def _build_cost(self, feature_dim: int, direction: str) -> KernelCost:
        # Backward gathers/scatters over A^T with the same per-edge traffic.
        nnz = self.nnz * self.scale
        rows = self.num_rows * self.scale

        per_edge = row_access(feature_dim, self.spec)
        # gather: read the source feature row of every edge, then materialize
        # the per-edge message in a temporary (nnz, F) buffer
        gather_requests = 2 * nnz * per_edge.requests
        gather_transactions = 2 * nnz * per_edge.transactions
        # scatter: read the message buffer back and atomically accumulate it
        # into the destination row
        scatter_transactions = nnz * per_edge.transactions * (1.0 + _ATOMIC_PENALTY)
        scatter_requests = 2 * nnz * per_edge.requests
        index_cost = contiguous_bytes_cost(2 * nnz * _EDGE_INDEX_BYTES, self.spec)

        read_bytes = nnz * (2 * feature_dim * FLOAT_BYTES + 2 * _EDGE_INDEX_BYTES)
        write_bytes = 2 * nnz * feature_dim * FLOAT_BYTES + rows * feature_dim * FLOAT_BYTES

        return KernelCost(
            name=self.name,
            category=CATEGORY_AGGREGATION,
            flops=2.0 * nnz * feature_dim,
            global_read_bytes=read_bytes,
            global_write_bytes=write_bytes,
            mem_requests=gather_requests + scatter_requests + index_cost.requests,
            mem_transactions=gather_transactions + scatter_transactions + index_cost.transactions,
            active_thread_ratio=1.0,
            imbalance=1.0,
            num_blocks=max(1, int(np.ceil(nnz * feature_dim / 256.0))),
            launches=2,
            bandwidth_efficiency=_COO_BANDWIDTH_EFFICIENCY,
        )
