"""SpMM load-balance model (paper §4.1 and Fig. 12).

CSR-based aggregation assigns whole adjacency rows to warps/blocks, so the
skewed degree distributions of real graphs translate into idle blocks waiting
for the heaviest one.  Sliced CSR bounds per-slice work by the slice
capacity, flattening the distribution.  Following the methodology of
Huang et al. [16] that the paper references, the *balanced* latency is the
total work divided by the number of blocks the GPU can keep resident, and
the imbalance factor is the ratio of the wave-limited actual latency to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.gpu.spec import GPUSpec
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.sliced_csr import SlicedCSRMatrix


@dataclass(frozen=True)
class LoadBalanceReport:
    """Work distribution statistics for one kernel launch."""

    num_blocks: int
    total_work: float
    max_block_work: float
    mean_block_work: float
    imbalance: float


def block_work_from_row_nnz(row_nnz: np.ndarray, rows_per_block: int = 8) -> np.ndarray:
    """Aggregate per-row work into per-thread-block work (CSR row mapping)."""
    row_nnz = np.asarray(row_nnz, dtype=np.float64)
    if rows_per_block <= 0:
        raise ValueError("rows_per_block must be > 0")
    if len(row_nnz) == 0:
        return np.zeros(0)
    pad = (-len(row_nnz)) % rows_per_block
    padded = np.concatenate([row_nnz, np.zeros(pad)])
    # Every row costs at least one unit (the warp is scheduled even for an
    # empty row), which is the redundant-access effect sliced CSR avoids.
    padded = np.maximum(padded, 1.0)
    return padded.reshape(-1, rows_per_block).sum(axis=1)


def block_work_from_slice_nnz(slice_nnz: np.ndarray, slices_per_block: int = 8) -> np.ndarray:
    """Aggregate per-slice work into per-thread-block work (sliced CSR mapping)."""
    slice_nnz = np.asarray(slice_nnz, dtype=np.float64)
    if slices_per_block <= 0:
        raise ValueError("slices_per_block must be > 0")
    if len(slice_nnz) == 0:
        return np.zeros(0)
    pad = (-len(slice_nnz)) % slices_per_block
    padded = np.concatenate([slice_nnz, np.zeros(pad)])
    return padded.reshape(-1, slices_per_block).sum(axis=1)


def analyze_block_work(
    block_work: np.ndarray, spec: GPUSpec, *, scale: float = 1.0
) -> LoadBalanceReport:
    """Derive the imbalance factor from a per-block work distribution.

    The estimate follows the classic greedy/list-scheduling bound: blocks are
    dispatched to ``spec.max_active_blocks`` resident slots as they free up,
    so the finish time is at most the perfectly balanced time plus (almost)
    one heaviest block:

    ``balanced = total work / min(slots, num_blocks)``
    ``actual   = balanced + max_block * (1 - 1/slots)``
    ``imbalance = actual / balanced``

    ``scale`` extrapolates the *number* of blocks (the workload is ``scale``
    times larger with the same per-block distribution) without changing the
    per-block work, matching how the rest of the cost model extrapolates.
    """
    block_work = np.asarray(block_work, dtype=np.float64)
    if len(block_work) == 0 or block_work.sum() == 0:
        return LoadBalanceReport(0, 0.0, 0.0, 0.0, 1.0)
    if scale <= 0:
        raise ValueError("scale must be > 0")
    slots = max(1, spec.max_active_blocks)
    total = float(block_work.sum()) * scale
    num_blocks = int(round(len(block_work) * scale))
    max_block = float(block_work.max())
    balanced = total / min(slots, max(1, num_blocks))
    if num_blocks <= slots:
        # Single wave: every block starts immediately, the heaviest one decides.
        actual = max_block
    else:
        actual = total / slots + max_block * (1.0 - 1.0 / slots)
    imbalance = max(1.0, actual / balanced) if balanced > 0 else 1.0
    return LoadBalanceReport(
        num_blocks=num_blocks,
        total_work=total,
        max_block_work=max_block,
        mean_block_work=float(block_work.mean()),
        imbalance=imbalance,
    )


def sliced_vs_csr_balance(graph: DynamicGraph, *, scale: float = 1.0) -> Dict[str, float]:
    """Mean imbalance factor of the CSR row and the sliced-CSR slice mapping.

    Averaged over the non-empty snapshots among the first eight;
    ``improvement`` is their ratio, the quantity Fig. 12's bars visualize.
    """
    spec = GPUSpec()
    csr, sliced = [], []
    for snapshot in graph.snapshots[:8]:
        adjacency = snapshot.adjacency
        if adjacency.nnz:
            slices = SlicedCSRMatrix.from_csr(adjacency)
            csr.append(block_work_from_row_nnz(adjacency.row_nnz()))
            sliced.append(block_work_from_slice_nnz(slices.slice_nnz()))

    def mean_imbalance(works) -> float:
        imbalances = [analyze_block_work(w, spec, scale=scale).imbalance for w in works]
        return float(np.mean(imbalances)) if imbalances else 1.0

    csr_imbalance, sliced_imbalance = mean_imbalance(csr), mean_imbalance(sliced)
    return {
        "csr_imbalance": csr_imbalance,
        "sliced_imbalance": sliced_imbalance,
        "improvement": csr_imbalance / sliced_imbalance,
    }
