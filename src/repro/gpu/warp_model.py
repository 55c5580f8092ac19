"""Warp-occupancy / thread-utilization model (§3.2 and §4.2).

When a single warp is responsible for one sparse-matrix row and the feature
dimension ``F`` is smaller than the warp width, only ``F`` of its 32 threads
do useful work (``warp_execution_efficiency = F/32``).  PiPAD's thread-aware
slice coalescing assigns ``coalesce_num`` slices to each warp — each handled
by a thread group of size equal to the coalescent feature width — raising the
number of active threads per warp (Algorithm 1).
"""

from __future__ import annotations


from repro.gpu.spec import GPUSpec

#: paper's bound on thread groups per warp: each group's access must not
#: exceed one 32-byte transaction (§4.2)
MAX_COALESCE_NUM = 4


def baseline_active_thread_ratio(feature_dim: int, spec: GPUSpec) -> float:
    """Active-thread ratio of a warp-per-row kernel without slice coalescing."""
    if feature_dim <= 0:
        raise ValueError("feature_dim must be > 0")
    return min(spec.warp_size, feature_dim) / spec.warp_size


def choose_coalesce_num(coalescent_dim: int, spec: GPUSpec) -> int:
    """Thread groups per warp for PiPAD's slice coalescing.

    The coalescent feature width (``F * S_per``) determines the thread-group
    size; the number of groups is bounded both by the warp width and by the
    paper's limit of 4 (one 32-byte transaction per group).
    """
    if coalescent_dim <= 0:
        raise ValueError("coalescent_dim must be > 0")
    if coalescent_dim >= spec.warp_size:
        return 1
    return max(1, min(MAX_COALESCE_NUM, spec.warp_size // coalescent_dim))


def coalesced_active_thread_ratio(coalescent_dim: int, spec: GPUSpec) -> float:
    """Active-thread ratio with thread-aware slice coalescing enabled."""
    groups = choose_coalesce_num(coalescent_dim, spec)
    active = min(spec.warp_size, groups * coalescent_dim)
    return active / spec.warp_size
