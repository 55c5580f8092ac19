"""The simulated GPU device.

:class:`SimulatedGPU` is the single object trainers talk to: it owns the
hardware specs, the event timeline, the memory-capacity ledger and the
per-category kernel statistics.  Kernels are *not* executed here — numerics
run in NumPy inside :mod:`repro.kernels` / :mod:`repro.tensor`; the device
only accounts for what the same work would cost on the modelled hardware and
when it would run given stream ordering and resource contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.gpu.kernel_cost import CATEGORIES, KernelCost, LaunchTerms
from repro.gpu.spec import GPUSpec, HostSpec, PCIeSpec
from repro.gpu.timeline import (
    RESOURCE_COMPUTE,
    RESOURCE_CPU,
    RESOURCE_PCIE_D2H,
    RESOURCE_PCIE_H2D,
    Timeline,
    TimelineOp,
    TimelineOps,
)


class OutOfMemoryError(RuntimeError):
    """Raised when a simulated allocation exceeds the device memory capacity."""


@dataclass
class KernelStats:
    """Accumulated per-category kernel statistics."""

    seconds: float = 0.0
    launches: int = 0
    flops: float = 0.0
    mem_requests: float = 0.0
    mem_transactions: float = 0.0
    balanced_seconds: float = 0.0
    weighted_thread_ratio: float = 0.0  # sum(ratio * seconds)


class SimulatedGPU:
    """Analytic single-GPU device with streams, PCIe link and memory ledger."""

    def __init__(
        self,
        spec: Optional[GPUSpec] = None,
        pcie: Optional[PCIeSpec] = None,
        host: Optional[HostSpec] = None,
        *,
        use_cuda_graph: bool = False,
    ) -> None:
        self.spec = spec or GPUSpec()
        self.pcie = pcie or PCIeSpec()
        self.host = host or HostSpec()
        self.use_cuda_graph = use_cuda_graph
        self.timeline = Timeline()
        self._allocated_bytes = 0
        self._peak_bytes = 0
        self._allocations: Dict[str, int] = {}
        self.kernel_stats: Dict[str, KernelStats] = {cat: KernelStats() for cat in CATEGORIES}

    # ------------------------------------------------------------------ memory
    @property
    def allocated_bytes(self) -> int:
        return self._allocated_bytes

    @property
    def peak_bytes(self) -> int:
        return self._peak_bytes

    def malloc(self, name: str, nbytes: int) -> None:
        """Reserve device memory; raises :class:`OutOfMemoryError` on overflow."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if name in self._allocations:
            raise ValueError(f"allocation {name!r} already exists")
        if self._allocated_bytes + nbytes > self.spec.memory_bytes:
            raise OutOfMemoryError(
                f"allocating {nbytes / 1e6:.1f} MB for {name!r} exceeds device capacity "
                f"({self.spec.memory_gb} GB, {self._allocated_bytes / 1e6:.1f} MB in use)"
            )
        self._allocations[name] = nbytes
        self._allocated_bytes += nbytes
        self._peak_bytes = max(self._peak_bytes, self._allocated_bytes)

    def free(self, name: str) -> None:
        if name not in self._allocations:
            raise KeyError(f"no allocation named {name!r}")
        self._allocated_bytes -= self._allocations.pop(name)

    def free_all(self) -> None:
        self._allocations.clear()
        self._allocated_bytes = 0

    def would_fit(self, nbytes: int) -> bool:
        return self._allocated_bytes + nbytes <= self.spec.memory_bytes

    # ------------------------------------------------------------------ ops
    def transfer_h2d(
        self,
        nbytes: float,
        *,
        label: str = "h2d",
        stream: str = "copy",
        pinned: bool = True,
        depends_on: Optional[Sequence[TimelineOp]] = None,
        not_before: float = 0.0,
        attrs: Optional[Mapping[str, object]] = None,
    ) -> TimelineOp:
        """Schedule a host→device copy of ``nbytes``; ``attrs`` adds facts
        after its ``bytes`` and ``pinned``."""
        duration = self.pcie.transfer_seconds(nbytes, pinned=pinned)
        op_attrs: Dict[str, object] = {"bytes": float(nbytes), "pinned": pinned}
        if attrs:
            op_attrs.update(attrs)
        return self.timeline.submit(
            label=label,
            kind="h2d",
            resource=RESOURCE_PCIE_H2D,
            duration=duration,
            stream=stream,
            depends_on=depends_on,
            attrs=op_attrs,
            not_before=not_before,
        )

    def transfer_d2h(
        self,
        nbytes: float,
        *,
        label: str = "d2h",
        depends_on: Optional[Sequence[TimelineOp]] = None,
    ) -> TimelineOp:
        """Schedule a pinned device→host copy of ``nbytes``."""
        return self.timeline.submit(
            label=label,
            kind="d2h",
            resource=RESOURCE_PCIE_D2H,
            duration=self.pcie.transfer_seconds(nbytes, pinned=True),
            stream="copy_back",
            depends_on=depends_on,
            attrs={"bytes": float(nbytes), "pinned": True},
        )

    def launch_kernel(self, cost: KernelCost) -> TimelineOp:
        """Schedule one kernel (or a fused group described by a single cost)."""
        return self._launch_chain([cost], [cost.name], "compute", None)[0]

    def launch_kernels(
        self,
        costs: Sequence[KernelCost],
        *,
        label: str = "kernel_batch",
        stream: str = "compute",
        depends_on: Optional[Sequence[TimelineOp]] = None,
    ) -> TimelineOps:
        """Schedule a sequence of kernels back-to-back on one stream.

        Op ``i`` is labelled ``f"{label}[{i}]:{costs[i].name}"``; the ops
        come back as a lazy sequence (see :meth:`Timeline.submit_chain`).
        """
        names = [cost.name for cost in costs]
        return self._launch_chain(costs, names, stream, depends_on, prefix=label)

    def _launch_chain(
        self,
        costs: Sequence[KernelCost],
        names: Sequence[str],
        stream: str,
        depends_on: Optional[Sequence[TimelineOp]],
        prefix: Optional[str] = None,
    ) -> TimelineOps:
        """Place ``costs`` as one timeline chain, then charge ``kernel_stats``.

        :meth:`Timeline.submit_chain` rejects a bad duration before placing
        anything, and the statistics are charged only after it returns, so a
        rejected chain leaves the device as it was.  Every op shares its
        cost's read-only :class:`LaunchTerms` ``attrs`` template.
        """
        terms = self.launch_terms(costs)
        ops = self.timeline.submit_chain(
            labels=names,
            kind="kernel",
            resource=RESOURCE_COMPUTE,
            durations=[t.duration for t in terms],
            attrs=[t.attrs for t in terms],
            stream=stream,
            depends_on=depends_on,
            prefix=prefix,
        )
        kernel_stats = self.kernel_stats
        for (
            _, _, category, seconds, launches, flops, requests, transactions, balanced, weighted
        ) in terms:
            stats = kernel_stats[category]
            stats.seconds += seconds
            stats.launches += launches
            stats.flops += flops
            stats.mem_requests += requests
            stats.mem_transactions += transactions
            stats.balanced_seconds += balanced
            stats.weighted_thread_ratio += weighted
        return ops

    def launch_terms(self, costs: Sequence[KernelCost]) -> List[LaunchTerms]:
        """Each cost's :meth:`KernelCost.launch_terms` on this device."""
        spec = self.spec
        per_launch_us = spec.kernel_launch_overhead_us
        if self.use_cuda_graph:
            per_launch_us = spec.cudagraph_launch_overhead_us
        return [cost.launch_terms(spec, per_launch_us) for cost in costs]

    def dispatch(self, num_launches: int, *, label: str, stream: str) -> TimelineOp:
        """Charge the host-side cost of issuing ``num_launches`` kernels.

        Eager execution issues every kernel from the Python thread, so the
        dispatch cost sits on the critical path of the caller's compute
        ``stream`` (the CPU-side latency that keeps GPU utilization low on
        small graphs, Table 2).  A captured CUDA Graph is replayed with a
        single driver call, so its much smaller cost goes to the ``"cpu"``
        stream and can overlap.
        """
        host = self.host
        if self.use_cuda_graph:
            per_launch_us, stream = host.graph_dispatch_overhead_us, "cpu"
        else:
            per_launch_us = host.dispatch_overhead_us
        return self.host_op(num_launches * per_launch_us * 1e-6, label=label, stream=stream)

    def host_op(
        self,
        seconds: float,
        *,
        label: str = "host",
        stream: str = "cpu",
        depends_on: Optional[Sequence[TimelineOp]] = None,
        not_before: float = 0.0,
        attrs: Optional[Mapping[str, object]] = None,
    ) -> TimelineOp:
        """Schedule CPU-side work (graph slicing, preparation, dispatch)."""
        return self.timeline.submit(
            label=label,
            kind="cpu",
            resource=RESOURCE_CPU,
            duration=seconds,
            stream=stream,
            depends_on=depends_on,
            attrs=attrs,
            not_before=not_before,
        )

    # ------------------------------------------------------------------ metrics
    def elapsed_seconds(self) -> float:
        """Simulated wall-clock time so far (timeline makespan)."""
        return self.timeline.makespan()

    def gpu_utilization(self) -> float:
        return self.timeline.gpu_utilization()

    def sm_utilization(self) -> float:
        return self.timeline.sm_utilization()

    def breakdown(self) -> Dict[str, float]:
        """Seconds per op kind plus derived utilization figures."""
        result = self.timeline.kind_seconds()
        result["makespan"] = self.elapsed_seconds()
        result["gpu_utilization"] = self.gpu_utilization()
        result["sm_utilization"] = self.sm_utilization()
        return result

    def category_seconds(self) -> Dict[str, float]:
        return {cat: stats.seconds for cat, stats in self.kernel_stats.items()}

    def average_thread_ratio(self) -> float:
        """Execution-time-weighted warp execution efficiency."""
        stats = self.kernel_stats.values()
        weighted = sum(s.weighted_thread_ratio for s in stats)
        seconds = sum(max(s.seconds, 0.0) for s in stats)
        return weighted / seconds if seconds > 0 else 1.0

    def memory_statistics(self) -> Dict[str, float]:
        return {
            "requests": sum(s.mem_requests for s in self.kernel_stats.values()),
            "transactions": sum(s.mem_transactions for s in self.kernel_stats.values()),
        }

    def reset(self) -> None:
        """Clear the timeline, memory ledger and statistics (specs persist)."""
        self.timeline.reset()
        self.free_all()
        self._peak_bytes = 0
        self.kernel_stats = {cat: KernelStats() for cat in CATEGORIES}
