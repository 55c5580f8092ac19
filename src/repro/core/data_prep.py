"""Partition-wise data preparation (❷ in Fig. 7).

For every snapshot group PiPAD processes together, the data-preparation
module extracts the overlap topology as edge keys and knows how many bytes
the group's overlap/exclusive sliced adjacencies cost to ship, counted from
the keys (the adjacencies themselves are built by the kernels that read
them, see :class:`~repro.core.parallel_gnn.PartitionKernels`).  Extraction
results are cached by ``(start timestep, group size)`` because the same
groups recur in every subsequent epoch — the paper amortizes the one-off
extraction over the preparing epochs the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRMatrix
from repro.graph.overlap import SnapshotOverlap, extract_overlap
from repro.graph.sliced_csr import DEFAULT_SLICE_CAPACITY, SlicedCSRMatrix
from repro.graph.snapshot import GraphSnapshot
from repro.gpu.spec import HostSpec


@dataclass(frozen=True)
class PartitionData:
    """Prepared adjacency data of one snapshot group."""

    start_timestep: int
    snapshots: Tuple[GraphSnapshot, ...]
    overlap: SnapshotOverlap
    #: bytes of the overlap adjacency in the transfer format (sliced CSR)
    overlap_bytes: int
    #: bytes of each exclusive adjacency in the transfer format
    exclusive_bytes: Tuple[int, ...]
    #: analytic host seconds spent extracting this group's overlap
    extraction_seconds: float

    @property
    def size(self) -> int:
        return len(self.snapshots)

    @property
    def overlap_rate(self) -> float:
        return self.overlap.overlap_rate

    @property
    def adjacency_bytes(self) -> int:
        """Total adjacency bytes shipped for the group (overlap + exclusives)."""
        return self.overlap_bytes + sum(self.exclusive_bytes)


class DataPreparer:
    """Builds and caches :class:`PartitionData` for snapshot groups."""

    def __init__(
        self, host: Optional[HostSpec] = None, *, use_sliced_csr: bool = True
    ) -> None:
        self.host = host or HostSpec()
        self.use_sliced_csr = use_sliced_csr
        self._cache: Dict[Tuple[int, int], PartitionData] = {}
        self.total_extraction_seconds = 0.0

    # -- helpers ---------------------------------------------------------------
    def _format_bytes(self, keys: np.ndarray, shape: Tuple[int, int]) -> int:
        """Transfer-format bytes of the adjacency holding the sorted edge
        ``keys``, counted from the keys alone (no CSR is built): a row of
        ``k`` keys owns ``ceil(k / DEFAULT_SLICE_CAPACITY)`` slices."""
        nnz = len(keys)
        if nnz == 0:
            return 0
        if not self.use_sliced_csr:
            return CSRMatrix.storage_bytes(nnz, shape[0])
        row_nnz = np.bincount(keys // shape[1])
        num_slices = int((-(-row_nnz // DEFAULT_SLICE_CAPACITY)).sum())
        return SlicedCSRMatrix.storage_bytes(nnz, num_slices)

    def _partition(
        self, snapshots: Sequence[GraphSnapshot], overlap: SnapshotOverlap, seconds: float
    ) -> PartitionData:
        return PartitionData(
            start_timestep=snapshots[0].timestep,
            snapshots=tuple(snapshots),
            overlap=overlap,
            overlap_bytes=self._format_bytes(overlap.overlap_keys, overlap.shape),
            exclusive_bytes=tuple(
                self._format_bytes(overlap.exclusive_keys(i), overlap.shape)
                for i in range(overlap.group_size)
            ),
            extraction_seconds=seconds,
        )

    def _extraction_seconds(self, snapshots: Sequence[GraphSnapshot]) -> float:
        total_nnz = sum(s.adjacency.nnz for s in snapshots)
        return total_nnz * self.host.overlap_extract_ns_per_nnz * 1e-9

    # -- preparation -----------------------------------------------------------
    def _prepare(self, snapshots: Sequence[GraphSnapshot]) -> PartitionData:
        """Prepare (or fetch from cache) the overlap decomposition of a group.

        The datapipe's path: build partitions through
        ``repro.core.datapipe.DataPipe(...).partition(snapshots)``.
        """
        if not snapshots:
            raise ValueError("cannot prepare an empty snapshot group")
        key = (snapshots[0].timestep, len(snapshots))
        if key in self._cache:
            return self._cache[key]
        overlap = extract_overlap([s.adjacency for s in snapshots])
        extraction_seconds = self._extraction_seconds(snapshots)
        self.total_extraction_seconds += extraction_seconds
        data = self._cache[key] = self._partition(snapshots, overlap, extraction_seconds)
        return data

    def prepare_from_decomposition(
        self, snapshots: Sequence[GraphSnapshot], overlap: SnapshotOverlap
    ) -> PartitionData:
        """Build :class:`PartitionData` from an already-known decomposition.

        The serving path maintains the window decomposition incrementally
        (:class:`~repro.graph.overlap.IncrementalOverlapTracker`), so no
        extraction work is charged; only the transfer-format sizes are
        computed.  Results are not cached here: the serving store caches
        them by snapshot versions until one of the versions leaves the
        window.
        """
        if not snapshots:
            raise ValueError("cannot prepare an empty snapshot group")
        if len(snapshots) != overlap.group_size:
            raise ValueError(
                f"decomposition covers {overlap.group_size} snapshots, got {len(snapshots)}"
            )
        return self._partition(snapshots, overlap, 0.0)

    def prepare_frame(
        self, snapshots: Sequence[GraphSnapshot], s_per: int
    ) -> List[PartitionData]:
        """Prepare every partition of a frame for a given parallelism level."""
        groups = [snapshots[i : i + s_per] for i in range(0, len(snapshots), s_per)]
        return [self._prepare(group) for group in groups]

    def clear(self) -> None:
        self._cache.clear()
        self.total_extraction_seconds = 0.0
