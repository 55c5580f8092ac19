"""Partition kernels: PiPAD's multi-snapshot GNN execution (§4.2).

For one partition of ``S`` snapshots, the
:class:`~repro.nn.aggregation.AggregationProvider` performs a single
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
(``PiPADTrainer._kernel_set``); a serving fleet builds one set per
window version group and shares it across replicas
(``InferenceSession.kernels_for``).  A set starts empty: each kernel is
built the first time a provider computes over its part (the CSR of the
part with it, from the decomposition's edge keys), and a kernel builds its
SciPy matrix on its first numerics and its sliced CSR on its first cost.
Serving groups whose aggregations all come from the reuse cache therefore
build no kernel at all.  The inverse degrees belong to the snapshot, so
every set over a snapshot holds the same tensor.  A provider wraps the
shared kernels with a reuse cache: the trainer's
:class:`~repro.nn.aggregation.ReuseManager`, or, in serving, the recording
cache of the one forward pass a fleet runs per distinct input
(``InferenceSession.predict``).  A set's ``adjacency_bytes`` are its
partition's, which the transfer rule
(:func:`~repro.nn.aggregation.transfer_bytes`) reads.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Optional

from repro.core.data_prep import PartitionData
from repro.gpu.spec import GPUSpec
from repro.graph.csr import CSRMatrix
from repro.kernels.base import BaseAggregationKernel
from repro.kernels.spmm_csr import GESpMMAggregation
from repro.kernels.spmm_sliced import SlicedParallelAggregation
from repro.nn.aggregation import inverse_degree


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
        self.snapshots = partition.snapshots
        self._spec = spec or GPUSpec()
        self._scale = scale
        self._use_sliced_csr = use_sliced_csr
        self.inv_degree = [inverse_degree(s) for s in partition.snapshots]
        self._exclusives: Dict[int, Optional[BaseAggregationKernel]] = {}

    @property
    def adjacency_bytes(self) -> int:
        """The partition's overlap plus exclusive bytes in the transfer format."""
        return self.partition.adjacency_bytes

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
