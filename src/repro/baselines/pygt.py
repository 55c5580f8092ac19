"""The four PyGT baseline variants of the paper's evaluation (§5.1).

- **PyGT**: PyTorch Geometric Temporal as-is — one snapshot at a time,
  synchronous pageable transfers, COO gather/scatter aggregation, eager
  kernel launches, no reuse.
- **PyGT-A**: PyGT plus asynchronous transfers on a dedicated stream with
  pinned staging buffers.
- **PyGT-R**: PyGT-A plus the inter-frame reuse of first-layer aggregation
  results (cached on the host, re-shipped when needed).
- **PyGT-G**: PyGT-R with the PyG aggregation replaced by GE-SpMM, which
  also requires shipping the adjacency in both CSR and CSC orientation for
  the backward pass.
"""

from __future__ import annotations

from repro.baselines.base import DGNNTrainerBase
from repro.kernels.spmm_coo import PyGCOOAggregation
from repro.kernels.spmm_csr import GESpMMAggregation


class PyGTTrainer(DGNNTrainerBase):
    """Canonical PyGT: synchronous transfers, COO aggregation, no reuse."""

    method_name = "PyGT"
    kernel = PyGCOOAggregation
    async_transfer = False
    use_reuse = False
    use_cuda_graph = False


class PyGTAsyncTrainer(PyGTTrainer):
    """PyGT-A: asynchronous (stream-overlapped, pinned) data transfers."""

    method_name = "PyGT-A"
    async_transfer = True


class PyGTReuseTrainer(PyGTAsyncTrainer):
    """PyGT-R: PyGT-A plus inter-frame reuse of first-layer aggregations."""

    method_name = "PyGT-R"
    use_reuse = True


class PyGTGeSpMMTrainer(PyGTReuseTrainer):
    """PyGT-G: PyGT-R with the GE-SpMM aggregation kernel (CSR+CSC resident)."""

    method_name = "PyGT-G"
    kernel = GESpMMAggregation
