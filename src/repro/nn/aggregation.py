"""The aggregation provider: how a model obtains ``mean(A+I)``-aggregated features.

A model aggregates a group of snapshots through one
:class:`AggregationProvider`, whatever the execution strategy, so the model
code is identical between the canonical one-snapshot baselines and PiPAD's
multi-snapshot parallel GNN.  The strategy lives in the provider's kernel
set, which splits each snapshot's adjacency as ``A_i = A_over + A_excl_i``
(§4.2):

- :class:`SnapshotKernels` (this module) is the canonical one-graph-at-a-time
  pattern of all PyGT variants: a partition of one snapshot with an empty
  overlap and the whole adjacency, under the trainer's kernel class (PyG
  COO or GE-SpMM), as its exclusive part;
- :class:`repro.core.parallel_gnn.PartitionKernels` is PiPAD's partition of
  several snapshots, whose shared overlap is aggregated once against the
  coalescent feature matrix.

The provider consults the :class:`ReuseManager` for the inter-frame reuse of
first-layer aggregation results (§4.4, Fig. 7 ❸): the first GCN layer
operates on the raw input features and the topology only, so its result is
identical across frames and epochs and can be cached per snapshot timestep.
Every trainer and every serving replica keeps one such cache, and it counts
every lookup a model makes.  :func:`transfer_bytes` is the one rule that
sizes a group's host→device transfer against that cache, from the kernel
set's snapshots and ``adjacency_bytes``.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Type

import numpy as np

from repro.graph.snapshot import GraphSnapshot
from repro.gpu.device import SimulatedGPU
from repro.gpu.spec import GPUSpec
from repro.kernels.base import BaseAggregationKernel
from repro.kernels.spmm_coo import PyGCOOAggregation
from repro.tensor import ops
from repro.tensor.function import op_scope
from repro.tensor.sparse import spmm
from repro.tensor.tensor import Tensor


#: share of the device's free memory the reuse cache's GPU-side buffer may occupy
GPU_BUFFER_FRACTION = 0.25


class AggregationCache(Protocol):
    """What a provider asks of its first-layer aggregation cache."""

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
    the ``kernel`` class (:class:`~repro.kernels.spmm_coo.PyGCOOAggregation`
    for PyGT/PyGT-A/PyGT-R,
    :class:`~repro.kernels.spmm_csr.GESpMMAggregation` for PyGT-G), or
    ``None`` when the snapshot has no edges (its aggregation is the self
    term only).  ``adjacency_bytes`` is the adjacency in that class's
    transfer format.  The trainers keep one set per snapshot for the whole
    run.
    """

    overlap = None

    def __init__(
        self,
        snapshot: GraphSnapshot,
        kernel: Type[BaseAggregationKernel] = PyGCOOAggregation,
        spec: Optional[GPUSpec] = None,
        scale: float = 1.0,
    ) -> None:
        self.snapshots = (snapshot,)
        self.inv_degree = [inverse_degree(snapshot)]
        self.adjacency_bytes = kernel.adjacency_bytes(snapshot.adjacency)
        self._kernel = (
            kernel(snapshot.adjacency, spec or GPUSpec(), scale)
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
    the mean.  The reuse cache is the caller's: the trainer's or serving
    replica's :class:`ReuseManager`, which counts the lookups.
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


class ReuseManager:
    """The inter-frame reuse cache of first-layer aggregations (Fig. 7 ❸, §4.4).

    The first-layer aggregation of a snapshot depends only on its topology
    and raw features, so the result computed in one frame/epoch is valid in
    every later frame/epoch that contains the same snapshot.  Every result
    is kept in a CPU-side buffer and, capacity permitting, the ones the
    *next* frame needs stay resident in a GPU-side buffer so they need
    neither recomputation nor re-transfer.  A disabled cache stores nothing
    and counts nothing.
    """

    def __init__(
        self,
        device: SimulatedGPU,
        *,
        enabled: bool = True,
    ) -> None:
        self.device = device
        self.enabled = enabled
        self._cpu_store: Dict[int, np.ndarray] = {}
        self._gpu_resident: Dict[int, int] = {}  # timestep -> bytes
        self._gpu_buffer_bytes = 0
        self.cpu_hits = 0
        self.gpu_hits = 0
        self.misses = 0

    # -- AggregationCache protocol (used by the providers) ----------------------
    def lookup(self, timestep: int) -> Optional[np.ndarray]:
        if not self.enabled:
            return None
        value = self._cpu_store.get(timestep)
        if value is None:
            self.misses += 1
            return None
        if timestep in self._gpu_resident:
            self.gpu_hits += 1
        else:
            self.cpu_hits += 1
        return value

    def store(self, timestep: int, value: np.ndarray) -> None:
        if self.enabled:
            self._cpu_store[timestep] = value

    def peek(self, timestep: int) -> Optional[np.ndarray]:
        """Like :meth:`lookup` but without touching the hit/miss counters.

        The serving path uses this to patch a cached result incrementally;
        only genuine model-driven lookups should count towards the hit rate.
        """
        if not self.enabled:
            return None
        return self._cpu_store.get(timestep)

    def invalidate(self, timesteps: Iterable[int]) -> int:
        """Drop the cached aggregations of the given snapshots.

        A topology or feature delta invalidates the first-layer aggregation of
        every snapshot version it touches; callers must evict those entries
        before the next forward pass or the model would silently read stale
        results.  Returns the number of CPU-side entries actually removed.
        """
        removed = 0
        for timestep in timesteps:
            if self._cpu_store.pop(timestep, None) is not None:
                removed += 1
            self._gpu_resident.pop(timestep, None)
        return removed

    # -- residency planning -------------------------------------------------------
    def has_cached(self, timestep: int) -> bool:
        return self.enabled and timestep in self._cpu_store

    def is_gpu_resident(self, timestep: int) -> bool:
        return self.enabled and timestep in self._gpu_resident

    def gpu_buffer_capacity(self) -> int:
        """Bytes the GPU-side buffer may occupy given current free memory."""
        free = self.device.spec.memory_bytes - self.device.allocated_bytes + self._gpu_buffer_bytes
        return int(free * GPU_BUFFER_FRACTION)

    def plan_gpu_residency(
        self, upcoming_timesteps: Sequence[int], bytes_per_timestep: Dict[int, int]
    ) -> List[int]:
        """Choose which cached results stay on the GPU for the next frame.

        Results are admitted in the order they will be used (§4.4: "based on
        the used order in the next frame") until the capacity budget runs out.
        The device allocation is resized only when it must grow, mirroring the
        paper's note that ``cudaMalloc``/``cudaFree`` churn is avoided.
        """
        if not self.enabled:
            return []
        capacity = self.gpu_buffer_capacity()
        resident: List[int] = []
        used = 0
        for timestep in upcoming_timesteps:
            if timestep not in self._cpu_store:
                continue
            size = bytes_per_timestep.get(timestep, self._cpu_store[timestep].nbytes)
            if used + size > capacity:
                break
            resident.append(timestep)
            used += size

        self._gpu_resident = {t: bytes_per_timestep.get(t, 0) for t in resident}
        if used > self._gpu_buffer_bytes:
            # Grow the buffer allocation (free + malloc models a realloc).
            if "reuse_buffer" in self.device._allocations:  # noqa: SLF001 - ledger access
                self.device.free("reuse_buffer")
            if self.device.would_fit(used):
                self.device.malloc("reuse_buffer", used)
                self._gpu_buffer_bytes = used
        return resident

    # -- reporting ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        return {
            "cpu_hits": float(self.cpu_hits),
            "gpu_hits": float(self.gpu_hits),
            "misses": float(self.misses),
            "cpu_cached_snapshots": float(len(self._cpu_store)),
            "gpu_resident_snapshots": float(len(self._gpu_resident)),
            "gpu_buffer_bytes": float(self._gpu_buffer_bytes),
        }

    def clear(self) -> None:
        self._cpu_store.clear()
        self._gpu_resident.clear()
        self._gpu_buffer_bytes = 0
        self.cpu_hits = self.gpu_hits = self.misses = 0


def transfer_bytes(
    groups: Sequence,
    reuse: ReuseManager,
    *,
    topology_with_reuse: bool,
    target_bytes: int,
) -> float:
    """Host→device bytes the groups need given the reuse cache's state.

    The one rule training and serving share.  Each group has ``snapshots``
    and ``adjacency_bytes`` (a kernel set, or
    :class:`~repro.core.data_prep.PartitionData`).  A snapshot whose
    first-layer aggregation is cached ships that (smaller) result unless it
    is already GPU-resident, and needs its group's topology only if the
    model re-aggregates under reuse; an uncached snapshot ships its raw
    features and the topology.  ``target_bytes`` per node ride along with
    every snapshot (training's loss targets; serving ships none).  Unscaled,
    and added in one running total, snapshot by snapshot.  It asks the cache
    :meth:`~ReuseManager.has_cached`, which counts nothing.
    """
    nbytes = 0.0
    for group in groups:
        topology_needed = False
        for snapshot in group.snapshots:
            if reuse.has_cached(snapshot.timestep):
                if not reuse.is_gpu_resident(snapshot.timestep):
                    nbytes += snapshot.num_nodes * snapshot.feature_dim * 4
                topology_needed = topology_needed or topology_with_reuse
            else:
                nbytes += snapshot.feature_bytes()
                topology_needed = True
            nbytes += snapshot.num_nodes * target_bytes
        if topology_needed:
            nbytes += group.adjacency_bytes
    return nbytes
