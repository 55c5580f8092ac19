"""Aggregation providers: how a model obtains ``mean(A+I)``-aggregated features.

A *provider* abstracts the execution strategy of the GNN aggregation so the
model code stays identical between the canonical one-snapshot baselines and
PiPAD's multi-snapshot parallel GNN:

- :class:`SequentialAggregationProvider` (this module) aggregates each
  snapshot independently with a chosen kernel flavour (PyG COO or GE-SpMM),
  which is what all PyGT variants do;
- :class:`repro.core.parallel_gnn.ParallelAggregationProvider` aggregates the
  overlap topology of a whole partition at once against the coalescent
  feature matrix.

Both consult an optional :class:`AggregationCache` for the inter-frame reuse
of first-layer aggregation results (§4.4): the first GCN layer operates on
the raw input features and the topology only, so its result is identical
across frames and epochs and can be cached per snapshot timestep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.graph.snapshot import GraphSnapshot
from repro.gpu.spec import GPUSpec
from repro.kernels.base import BaseAggregationKernel
from repro.kernels.registry import get_aggregation_kernel
from repro.tensor.function import op_scope
from repro.tensor.sparse import spmm
from repro.tensor.tensor import Tensor


class AggregationCache(Protocol):
    """Minimal cache interface for first-layer aggregation reuse."""

    def lookup(self, timestep: int) -> Optional[np.ndarray]:
        """Return the cached aggregation for a snapshot, or ``None``."""

    def store(self, timestep: int, value: np.ndarray) -> None:
        """Cache the aggregation result of a snapshot."""


class AggregationProvider(Protocol):
    """Strategy object the models call to aggregate a group of snapshots."""

    @property
    def num_snapshots(self) -> int:
        ...

    def aggregate_many(self, layer: int, xs: Sequence[Tensor]) -> List[Tensor]:
        """Aggregate one tensor per snapshot of the current group for ``layer``."""


def mean_inverse_degree(snapshot: GraphSnapshot) -> np.ndarray:
    """``1 / (out_degree + 1)`` column vector used by the mean aggregator."""
    degree = snapshot.adjacency.row_nnz().astype(np.float32)
    return (1.0 / (degree + 1.0)).reshape(-1, 1)


def inverse_degree(snapshot: GraphSnapshot) -> Tensor:
    """:func:`mean_inverse_degree` as a constant tensor, built once per snapshot."""
    if snapshot._inverse_degree is None:  # noqa: SLF001 - the snapshot's memo
        snapshot._inverse_degree = Tensor(mean_inverse_degree(snapshot))
    return snapshot._inverse_degree


def snapshot_kernel(
    snapshot: GraphSnapshot, kernel_name: str, spec: GPUSpec, scale: float
) -> Optional[BaseAggregationKernel]:
    """The ``kernel_name`` kernel over one snapshot's adjacency (``None``
    when the snapshot has no edges: its aggregation is the self term only)."""
    if not snapshot.adjacency.nnz:
        return None
    return get_aggregation_kernel(kernel_name)(snapshot.adjacency, spec, scale)


class SequentialAggregationProvider:
    """One-snapshot-at-a-time aggregation (all PyGT baseline variants).

    Parameters
    ----------
    snapshots:
        The snapshots of the group being processed (a partition of size 1 for
        the canonical baselines).
    kernel_name:
        Aggregation-kernel family (``"coo"`` for PyGT/PyGT-A/PyGT-R,
        ``"gespmm"`` for PyGT-G).
    spec, scale:
        Simulated-GPU spec and workload-extrapolation factor for kernel costs.
    cache:
        Optional first-layer aggregation cache (PyGT-R / PyGT-G reuse).
    reusable_layers:
        Which GCN layer indices may consult the cache (layer 0 by default).
    kernels:
        Per-snapshot kernels already built by :func:`snapshot_kernel` (the
        trainers keep one per snapshot for the whole run); when omitted the
        provider builds its own from ``kernel_name``, ``spec`` and ``scale``.
    """

    def __init__(
        self,
        snapshots: Sequence[GraphSnapshot],
        kernel_name: str = "coo",
        spec: Optional[GPUSpec] = None,
        scale: float = 1.0,
        cache: Optional[AggregationCache] = None,
        reusable_layers: Sequence[int] = (0,),
        *,
        kernels: Optional[Sequence[Optional[BaseAggregationKernel]]] = None,
    ) -> None:
        if not snapshots:
            raise ValueError("provider needs at least one snapshot")
        self.snapshots = list(snapshots)
        self.spec = spec or GPUSpec()
        self.scale = scale
        self.cache = cache
        self.reusable_layers = tuple(reusable_layers)
        if kernels is None:
            kernels = [
                snapshot_kernel(snap, kernel_name, self.spec, scale) for snap in self.snapshots
            ]
        elif len(kernels) != len(self.snapshots):
            raise ValueError(f"expected {len(self.snapshots)} kernels, got {len(kernels)}")
        self._kernels = list(kernels)
        self._inv_degree = [inverse_degree(snap) for snap in self.snapshots]
        #: number of aggregations served from the cache (reporting/telemetry)
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def num_snapshots(self) -> int:
        return len(self.snapshots)

    def aggregate_many(self, layer: int, xs: Sequence[Tensor]) -> List[Tensor]:
        if len(xs) != self.num_snapshots:
            raise ValueError(
                f"expected {self.num_snapshots} feature tensors, got {len(xs)}"
            )
        results: List[Tensor] = []
        for index, (snapshot, x) in enumerate(zip(self.snapshots, xs)):
            cached = None
            if self.cache is not None and layer in self.reusable_layers:
                cached = self.cache.lookup(snapshot.timestep)
            if cached is not None:
                self.cache_hits += 1
                results.append(Tensor(cached))
                continue
            self.cache_misses += 1
            with op_scope("aggregation"):
                kernel = self._kernels[index]
                aggregated = spmm(kernel, x) + x if kernel is not None else x
                result = aggregated * self._inv_degree[index]
            if self.cache is not None and layer in self.reusable_layers:
                self.cache.store(snapshot.timestep, result.data)
            results.append(result)
        return results


class DictAggregationCache:
    """Simple in-memory cache keyed by snapshot timestep (CPU-side buffer)."""

    def __init__(self) -> None:
        self._store: Dict[int, np.ndarray] = {}

    def lookup(self, timestep: int) -> Optional[np.ndarray]:
        return self._store.get(timestep)

    def store(self, timestep: int, value: np.ndarray) -> None:
        self._store[timestep] = value

    def __len__(self) -> int:
        return len(self._store)

    def nbytes(self) -> int:
        return sum(v.nbytes for v in self._store.values())

    def clear(self) -> None:
        self._store.clear()
