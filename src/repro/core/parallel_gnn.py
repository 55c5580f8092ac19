"""Parallel aggregation provider: PiPAD's multi-snapshot GNN execution (§4.2).

For one partition of ``S`` snapshots, the provider performs a single
aggregation of the shared (overlap) topology against the coalescent feature
matrix ``[X_1 | ... | X_S]`` and one small aggregation per snapshot for its
exclusive edges; the results are recombined, the mean normalization applied
per snapshot, and — for reusable layers — the per-snapshot results are stored
in the reuse cache.  Numerically the output is identical to aggregating each
snapshot independently (the decomposition ``A_i = A_over + A_excl_i`` is
exact); only the memory behaviour and cost differ, which is the point.

The static half of that work — the sliced-CSR overlap and exclusive
kernels, their slice statistics, transposes and per-feature-width costs, and
the inverse degrees — lives in :class:`PartitionKernels`, which PiPAD builds
once as preprocessing (§4.2, §4.4).  A training run builds one set per
prepared partition and reuses it in every frame and epoch
(``PiPADTrainer._make_provider``); a serving fleet builds one set per
window version group and shares it across replicas
(``InferenceSession.kernels_for``).  A set starts empty: each kernel is
built the first time a provider computes over its part (the CSR of the
part with it, from the decomposition's edge keys), and a kernel builds its
SciPy matrix on its first numerics and its sliced CSR on its first cost.
Serving groups whose aggregations all come from the reuse cache therefore
build no kernel at all.  The inverse degrees belong to the snapshot, so
every set over a snapshot holds the same tensor.  A
:class:`ParallelAggregationProvider` wraps the shared kernels with a reuse
cache and its own hit/miss counters: the trainer's cache, or, in serving,
the recording cache of the one forward pass a fleet runs per distinct
input (``InferenceSession.predict``).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.data_prep import PartitionData
from repro.gpu.spec import GPUSpec
from repro.graph.csr import CSRMatrix
from repro.kernels.base import BaseAggregationKernel
from repro.kernels.spmm_csr import GESpMMAggregation
from repro.kernels.spmm_sliced import SlicedParallelAggregation
from repro.nn.aggregation import AggregationCache, inverse_degree
from repro.tensor import ops
from repro.tensor.function import op_scope
from repro.tensor.sparse import spmm
from repro.tensor.tensor import Tensor


class PartitionKernels:
    """One partition's overlap and exclusive kernels and inverse degrees.

    Nothing here changes once built, so every provider over the same
    partition — every frame and epoch of a training run, every replica of
    a serving fleet — can share one instance.  Each kernel is built the
    first time a provider asks for it, so a partition whose aggregations
    all come from the reuse cache builds none.  The inverse degrees are the
    snapshots' own (:func:`~repro.nn.aggregation.inverse_degree`), shared
    with every other partition that holds the snapshot.
    """

    def __init__(
        self,
        partition: PartitionData,
        spec: Optional[GPUSpec] = None,
        scale: float = 1.0,
        *,
        use_sliced_csr: bool = True,
    ) -> None:
        self.partition = partition
        self._spec = spec or GPUSpec()
        self._scale = scale
        self._use_sliced_csr = use_sliced_csr
        self.inv_degree = [inverse_degree(s) for s in partition.snapshots]
        self._exclusives: Dict[int, Optional[BaseAggregationKernel]] = {}

    def _kernel(self, adjacency: CSRMatrix, snapshots_coalesced: int) -> BaseAggregationKernel:
        if self._use_sliced_csr:
            return SlicedParallelAggregation(
                adjacency, self._spec, self._scale, snapshots_coalesced=snapshots_coalesced
            )
        return GESpMMAggregation(adjacency, self._spec, self._scale)

    @cached_property
    def overlap(self) -> Optional[BaseAggregationKernel]:
        """Kernel of the overlap adjacency (``None`` when it is empty)."""
        decomposition = self.partition.overlap
        if not len(decomposition.overlap_keys):
            return None
        return self._kernel(decomposition.overlap, self.partition.size)

    def exclusive(self, index: int) -> Optional[BaseAggregationKernel]:
        """Kernel of snapshot ``index``'s exclusive adjacency (``None`` when empty)."""
        if index not in self._exclusives:
            decomposition = self.partition.overlap
            self._exclusives[index] = (
                self._kernel(decomposition.exclusive(index), 1)
                if len(decomposition.exclusive_keys(index))
                else None
            )
        return self._exclusives[index]


class ParallelAggregationProvider:
    """Aggregates a whole partition at once over its overlap decomposition.

    ``kernels`` are the partition's :class:`PartitionKernels`, built once
    and shared by every provider over the same partition: the trainer keeps
    one set per prepared partition for the whole run, the serving store one
    per version group.  The reuse cache and the hit/miss counters are the
    provider's own.
    """

    def __init__(
        self,
        kernels: PartitionKernels,
        cache: Optional[AggregationCache] = None,
        reusable_layers: Sequence[int] = (0,),
    ) -> None:
        self.kernels = kernels
        self.partition = kernels.partition
        self.cache = cache
        self.reusable_layers = tuple(reusable_layers)
        self.cache_hits = 0
        self.cache_misses = 0

    # -- provider interface ---------------------------------------------------
    @property
    def num_snapshots(self) -> int:
        return self.partition.size

    def aggregate_many(self, layer: int, xs: Sequence[Tensor]) -> List[Tensor]:
        if len(xs) != self.num_snapshots:
            raise ValueError(f"expected {self.num_snapshots} feature tensors, got {len(xs)}")
        snapshots = self.partition.snapshots
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
