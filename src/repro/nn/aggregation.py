"""The aggregation provider: how a model obtains ``mean(A+I)``-aggregated features.

A model aggregates a group of snapshots through one
:class:`AggregationProvider`, whatever the execution strategy, so the model
code is identical between the canonical one-snapshot baselines and PiPAD's
multi-snapshot parallel GNN.  The strategy lives in the provider's kernel
set, which splits each snapshot's adjacency as ``A_i = A_over + A_excl_i``
(§4.2):

- :class:`SnapshotKernels` (this module) is the canonical one-graph-at-a-time
  pattern of all PyGT variants: a partition of one snapshot with an empty
  overlap and the whole adjacency, under a chosen kernel flavour (PyG COO
  or GE-SpMM), as its exclusive part;
- :class:`repro.core.parallel_gnn.PartitionKernels` is PiPAD's partition of
  several snapshots, whose shared overlap is aggregated once against the
  coalescent feature matrix.

The provider consults an optional :class:`AggregationCache` for the
inter-frame reuse of first-layer aggregation results (§4.4): the first GCN
layer operates on the raw input features and the topology only, so its
result is identical across frames and epochs and can be cached per
snapshot timestep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.graph.snapshot import GraphSnapshot
from repro.gpu.spec import GPUSpec
from repro.kernels.base import BaseAggregationKernel
from repro.kernels.registry import get_aggregation_kernel
from repro.tensor import ops
from repro.tensor.function import op_scope
from repro.tensor.sparse import spmm
from repro.tensor.tensor import Tensor


class AggregationCache(Protocol):
    """Minimal cache interface for first-layer aggregation reuse."""

    def lookup(self, timestep: int) -> Optional[np.ndarray]:
        """Return the cached aggregation for a snapshot, or ``None``."""

    def store(self, timestep: int, value: np.ndarray) -> None:
        """Cache the aggregation result of a snapshot."""


def mean_inverse_degree(snapshot: GraphSnapshot) -> np.ndarray:
    """``1 / (out_degree + 1)`` column vector used by the mean aggregator."""
    degree = snapshot.adjacency.row_nnz().astype(np.float32)
    return (1.0 / (degree + 1.0)).reshape(-1, 1)


def inverse_degree(snapshot: GraphSnapshot) -> Tensor:
    """:func:`mean_inverse_degree` as a constant tensor, built once per snapshot."""
    if snapshot._inverse_degree is None:  # noqa: SLF001 - the snapshot's memo
        snapshot._inverse_degree = Tensor(mean_inverse_degree(snapshot))
    return snapshot._inverse_degree


class SnapshotKernels:
    """The kernel set of one snapshot aggregated on its own.

    The canonical one-snapshot aggregation is a partition of one: the
    overlap is empty and the whole adjacency is the exclusive part, under
    the ``kernel_name`` kernel (``"coo"`` for PyGT/PyGT-A/PyGT-R,
    ``"gespmm"`` for PyGT-G), or ``None`` when the snapshot has no edges
    (its aggregation is the self term only).  The trainers keep one set per
    snapshot for the whole run.
    """

    overlap = None

    def __init__(
        self,
        snapshot: GraphSnapshot,
        kernel_name: str = "coo",
        spec: Optional[GPUSpec] = None,
        scale: float = 1.0,
    ) -> None:
        self.snapshots = (snapshot,)
        self.inv_degree = [inverse_degree(snapshot)]
        self._kernel = (
            get_aggregation_kernel(kernel_name)(snapshot.adjacency, spec or GPUSpec(), scale)
            if snapshot.adjacency.nnz
            else None
        )

    def exclusive(self, index: int) -> Optional[BaseAggregationKernel]:
        """The snapshot's kernel (``index`` is always 0)."""
        return self._kernel


class AggregationProvider:
    """Aggregates a group of snapshots at once over its overlap decomposition.

    ``kernels`` is the group's kernel set — :class:`SnapshotKernels` or
    :class:`~repro.core.parallel_gnn.PartitionKernels` — built once and
    shared by every provider over the same group: a trainer keeps one set
    per group for the whole run, the serving store one per version group.
    The set's ``overlap`` kernel (``None`` when empty) runs once against the
    coalescent feature matrix, each ``exclusive(i)`` kernel (``None`` when
    empty) against snapshot ``i``'s features, and ``inv_degree[i]`` applies
    the mean.  The reuse cache and the hit/miss counters are the provider's
    own.
    """

    def __init__(
        self,
        kernels,
        cache: Optional[AggregationCache] = None,
        reusable_layers: Sequence[int] = (0,),
    ) -> None:
        self.kernels = kernels
        self.cache = cache
        self.reusable_layers = tuple(reusable_layers)
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def num_snapshots(self) -> int:
        return len(self.kernels.snapshots)

    def aggregate_many(self, layer: int, xs: Sequence[Tensor]) -> List[Tensor]:
        """Aggregate one tensor per snapshot of the group for ``layer``."""
        if len(xs) != self.num_snapshots:
            raise ValueError(f"expected {self.num_snapshots} feature tensors, got {len(xs)}")
        snapshots = self.kernels.snapshots
        reusable = layer in self.reusable_layers and self.cache is not None

        # Serve every snapshot from the cache when possible (all-or-nothing per
        # snapshot; mixing cached and computed snapshots is still exact).
        cached_results: List[Optional[np.ndarray]] = [
            self.cache.lookup(s.timestep) if reusable else None for s in snapshots
        ]
        to_compute = [i for i, c in enumerate(cached_results) if c is None]
        self.cache_hits += len(snapshots) - len(to_compute)
        self.cache_misses += len(to_compute)

        computed: dict = {}
        if to_compute:
            feature_dim = xs[0].shape[1]
            with op_scope("aggregation"):
                # Parallel aggregation of the overlap topology against the
                # coalescent feature matrix of the snapshots still to compute.
                kernels = self.kernels
                if kernels.overlap is not None:
                    coalescent = (
                        ops.concat([xs[i] for i in to_compute], axis=1)
                        if len(to_compute) > 1
                        else xs[to_compute[0]]
                    )
                    overlap_out = spmm(kernels.overlap, coalescent)
                else:
                    overlap_out = None
                for position, index in enumerate(to_compute):
                    x = xs[index]
                    if overlap_out is not None:
                        start = position * feature_dim
                        part = overlap_out[:, start : start + feature_dim]
                    else:
                        part = None
                    exclusive_kernel = kernels.exclusive(index)
                    pieces = x if part is None else part + x
                    if exclusive_kernel is not None:
                        pieces = pieces + spmm(exclusive_kernel, x)
                    computed[index] = pieces * kernels.inv_degree[index]

        results: List[Tensor] = []
        for index, snapshot in enumerate(snapshots):
            if cached_results[index] is not None:
                results.append(Tensor(cached_results[index]))
                continue
            result = computed[index]
            if reusable:
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
