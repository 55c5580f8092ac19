"""Kernel cost records and the analytic execution-time model.

Every kernel in :mod:`repro.kernels` (and every generic dense op observed by
the profiler) produces a :class:`KernelCost`.  The simulated device converts
a cost into execution time with a roofline-style model:

``time = max(compute_time, memory_time) * imbalance``

where compute throughput is de-rated by the kernel's active-thread ratio
(warp execution efficiency) and memory time is driven by the number of
32-byte transactions — the quantity the paper's memory-inefficiency analysis
(§3.2, Fig. 5, Fig. 11a) is framed around.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from repro.gpu.spec import GPUSpec

#: canonical kernel categories used by the breakdown figures
CATEGORY_AGGREGATION = "aggregation"
CATEGORY_UPDATE = "update"
CATEGORY_RNN = "rnn"
CATEGORY_ELEMENTWISE = "elementwise"
CATEGORY_OTHER = "other"
CATEGORIES = (
    CATEGORY_AGGREGATION,
    CATEGORY_UPDATE,
    CATEGORY_RNN,
    CATEGORY_ELEMENTWISE,
    CATEGORY_OTHER,
)


class LaunchTerms(NamedTuple):
    """What one launch of a :class:`KernelCost` places and charges: the op's
    ``duration`` (execution plus launch overhead) and read-only ``attrs``
    template, which every op of this launch shares on the timeline, then the
    ``category``'s :class:`~repro.gpu.device.KernelStats` increments."""

    duration: float
    attrs: Mapping[str, object]
    category: str
    seconds: float
    launches: int
    flops: float
    mem_requests: float
    mem_transactions: float
    balanced_seconds: float
    weighted_thread_ratio: float


@dataclass(frozen=True)
class KernelCost:
    """Hardware cost of one kernel launch.

    Attributes
    ----------
    name:
        Kernel identifier (e.g. ``"spmm_sliced_parallel"``).
    category:
        One of :data:`CATEGORIES`; drives the Fig. 4 compute breakdown.
    flops:
        Floating-point operations executed.
    global_read_bytes / global_write_bytes:
        Useful bytes moved from/to global memory.
    mem_requests / mem_transactions:
        Warp-level requests and 32-byte transactions issued for global
        memory traffic (the Fig. 5 / Fig. 11a metrics).
    active_thread_ratio:
        Average fraction of active threads per warp
        (``warp_execution_efficiency``), in (0, 1].
    imbalance:
        Ratio of actual to perfectly balanced execution time (>= 1); the gap
        Fig. 12 visualizes.
    num_blocks:
        Thread blocks launched (used for the Balanced estimate).
    shared_mem_bytes:
        Shared-memory working set (informational).
    launches:
        Number of device kernel launches this cost represents.
    bandwidth_efficiency:
        Fraction of the device's sustained bandwidth this kernel's access
        pattern achieves (irregular gather/scatter ≪ 1, coalesced streaming
        ≈ 1).  This is the knob that separates the PyG, GE-SpMM and PiPAD
        aggregation kernels beyond raw transaction counts.
    """

    name: str
    category: str = CATEGORY_OTHER
    flops: float = 0.0
    global_read_bytes: float = 0.0
    global_write_bytes: float = 0.0
    mem_requests: float = 0.0
    mem_transactions: float = 0.0
    active_thread_ratio: float = 1.0
    imbalance: float = 1.0
    num_blocks: int = 1
    shared_mem_bytes: float = 0.0
    launches: int = 1
    bandwidth_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}; expected one of {CATEGORIES}")
        if not 0.0 < self.active_thread_ratio <= 1.0:
            raise ValueError(f"active_thread_ratio must be in (0, 1], got {self.active_thread_ratio}")
        # ``not x >= bound`` rather than ``x < bound``, so NaN is rejected too
        if not self.imbalance >= 1.0:
            raise ValueError(f"imbalance must be >= 1, got {self.imbalance}")
        for attr in ("flops", "global_read_bytes", "global_write_bytes", "mem_requests", "mem_transactions"):
            value = getattr(self, attr)
            if not value >= 0:
                raise ValueError(f"{attr} must be >= 0, got {value}")
        if not 0.0 < self.bandwidth_efficiency <= 1.0:
            raise ValueError(
                f"bandwidth_efficiency must be in (0, 1], got {self.bandwidth_efficiency}"
            )

    # -- time model ---------------------------------------------------------
    def compute_seconds(self, spec: GPUSpec) -> float:
        """Time the arithmetic would take at de-rated peak throughput."""
        if self.flops == 0:
            return 0.0
        return self.flops / (spec.peak_flops * self.active_thread_ratio)

    def memory_seconds(self, spec: GPUSpec) -> float:
        """Time the global-memory traffic takes at sustained bandwidth."""
        bytes_moved = self.mem_transactions * spec.transaction_bytes
        bytes_moved = max(bytes_moved, self.global_read_bytes + self.global_write_bytes)
        if bytes_moved == 0:
            return 0.0
        return bytes_moved / (spec.effective_bandwidth * self.bandwidth_efficiency)

    def execution_seconds(self, spec: GPUSpec) -> float:
        """Roofline execution time (excluding launch overhead)."""
        return self.balanced_seconds(spec) * self.imbalance

    def balanced_seconds(self, spec: GPUSpec) -> float:
        """Ideal perfectly-load-balanced execution time (Fig. 12 "Balanced").

        The record is frozen, so the value is kept on it for the last spec
        asked (by identity) and a cost launched every frame evaluates its
        roofline once.
        """
        memo = self.__dict__.get("_roofline")
        if memo is not None and memo[0] is spec:
            return memo[1]
        seconds = max(self.compute_seconds(spec), self.memory_seconds(spec))
        self.__dict__["_roofline"] = (spec, seconds)
        return seconds

    def launch_terms(self, spec: GPUSpec, per_launch_us: float) -> LaunchTerms:
        """The :class:`LaunchTerms` of launching this cost on ``spec``.

        ``per_launch_us`` is the device's overhead per kernel launch (eager
        and CUDA-graph devices differ).  The terms are kept on the record for
        the last ``(spec, per_launch_us)`` asked, the spec by identity as in
        :meth:`balanced_seconds`; ``attrs`` is the template its ops share.  A
        device adds the terms to its statistics one cost at a time in launch
        order: float addition does not associate, so a pre-summed chain
        would change the totals' bits.
        """
        memo = self.__dict__.get("_launch_terms")
        if memo is not None and memo[0] is spec and memo[1] == per_launch_us:
            return memo[2]
        balanced = self.balanced_seconds(spec)
        seconds = balanced * self.imbalance
        terms = LaunchTerms(
            seconds + self.launches * per_launch_us * 1e-6,
            MappingProxyType({"category": self.category, "launches": self.launches}),
            self.category,
            seconds,
            self.launches,
            self.flops,
            self.mem_requests,
            self.mem_transactions,
            balanced,
            self.active_thread_ratio * max(seconds, 1e-12),
        )
        self.__dict__["_launch_terms"] = (spec, per_launch_us, terms)
        return terms

    # -- algebra ------------------------------------------------------------
    def scaled(self, factor: float, *, launches: Optional[int] = None) -> "KernelCost":
        """Scale all extensive quantities by ``factor`` (workload extrapolation).

        ``launches`` replaces the launch count (default: kept), for splits
        that divide the kernel sequence itself rather than only its work.
        """
        if factor <= 0:
            raise ValueError("scale factor must be > 0")
        return KernelCost(
            name=self.name,
            category=self.category,
            flops=self.flops * factor,
            global_read_bytes=self.global_read_bytes * factor,
            global_write_bytes=self.global_write_bytes * factor,
            mem_requests=self.mem_requests * factor,
            mem_transactions=self.mem_transactions * factor,
            active_thread_ratio=self.active_thread_ratio,
            imbalance=self.imbalance,
            num_blocks=max(1, int(round(self.num_blocks * factor))),
            shared_mem_bytes=self.shared_mem_bytes,
            launches=self.launches if launches is None else launches,
            bandwidth_efficiency=self.bandwidth_efficiency,
        )

    def split(self, parts: int) -> "KernelCost":
        """One of ``parts`` equal shares of this kernel sequence.

        The work is divided by ``parts`` and so are the launches (at least
        one stays).  The share is kept on the record per ``parts``, so a cost
        split every frame is built and validated once.
        """
        splits = self.__dict__.get("_splits")
        if splits is None:
            splits = self.__dict__["_splits"] = {}
        share = splits.get(parts)
        if share is None:
            factor = 1.0 / parts
            share = splits[parts] = self.scaled(
                factor, launches=max(1, round(self.launches * factor))
            )
        return share
