"""Online graph analyzer: CSR → sliced CSR conversion (❶ in Fig. 7).

The slicer runs on the host during the preparing epochs, converts every
snapshot's adjacency into the sliced format once, caches the result, and
reports how long the conversion takes (an analytic per-nnz cost, charged to
the CPU resource of the timeline so it can overlap with device work).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.graph.csr import CSRMatrix
from repro.graph.sliced_csr import DEFAULT_SLICE_CAPACITY, SlicedCSRMatrix
from repro.graph.snapshot import GraphSnapshot
from repro.gpu.spec import HostSpec


class GraphSlicer:
    """Converts and caches sliced-CSR adjacencies for a snapshot sequence."""

    def __init__(
        self,
        slice_capacity: int = DEFAULT_SLICE_CAPACITY,
        host: Optional[HostSpec] = None,
    ) -> None:
        self.slice_capacity = slice_capacity
        self.host = host or HostSpec()
        self._cache: Dict[int, SlicedCSRMatrix] = {}
        self.total_host_seconds = 0.0

    def slice_adjacency(self, adjacency: CSRMatrix, key: Optional[int] = None) -> SlicedCSRMatrix:
        """Slice one adjacency (cached by ``key`` when provided)."""
        if key is not None and key in self._cache:
            return self._cache[key]
        sliced = SlicedCSRMatrix.from_csr(adjacency, slice_capacity=self.slice_capacity)
        self.total_host_seconds += self.conversion_seconds(adjacency)
        if key is not None:
            self._cache[key] = sliced
        return sliced

    def slice_snapshot(self, snapshot: GraphSnapshot) -> SlicedCSRMatrix:
        return self.slice_adjacency(snapshot.adjacency, key=snapshot.timestep)

    def conversion_seconds(self, adjacency: CSRMatrix) -> float:
        """Analytic host time of one CSR→sliced conversion."""
        return adjacency.nnz * self.host.slicing_ns_per_nnz * 1e-9

    def is_cached(self, timestep: int) -> bool:
        return timestep in self._cache

    def clear(self) -> None:
        self._cache.clear()
        self.total_host_seconds = 0.0
