"""Inter-frame reuse buffers (❸ in Fig. 7, §4.4).

The first-layer aggregation of a snapshot depends only on its topology and
raw features, so the result computed in one frame/epoch is valid in every
later frame/epoch that contains the same snapshot.  PiPAD keeps all such
results in a CPU-side buffer and, capacity permitting, keeps the ones needed
by the *next* frame resident in a GPU-side buffer so they need neither
recomputation nor re-transfer.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.gpu.device import SimulatedGPU

#: share of the device's free memory the GPU-side buffer may occupy
GPU_BUFFER_FRACTION = 0.25


class ReuseManager:
    """CPU + GPU aggregation-result buffers with capacity-aware residency."""

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

    def hit_rate(self) -> float:
        """Fraction of lookups served from either buffer so far."""
        total = self.cpu_hits + self.gpu_hits + self.misses
        return (self.cpu_hits + self.gpu_hits) / total if total else 0.0

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
