"""A group of simulated GPUs coordinated through one interconnect.

:class:`DeviceGroup` owns ``K`` :class:`~repro.gpu.device.SimulatedGPU`
timelines that share a single simulated clock: a :class:`~repro.gpu.timeline.
TimelineOp` only carries start/end times, so an op scheduled on one device
can appear in another device's ``depends_on`` list — that is the
cross-device dependency edge the distributed trainer uses to order shard
compute after remote halo data has arrived.

Collectives (``all_reduce``, ``all_gather``, ``halo_exchange``) are
bulk-synchronous: every participant starts at the same instant — the latest
readiness over all devices' dependencies, communication engines and streams
— and occupies its ``peer_link`` resource for the ring-cost duration from
:class:`~repro.gpu.interconnect.Interconnect`.  Point-to-point ``send``
transfers involve only their two endpoints and occupy both of their
``peer_link`` engines — the primitive the frame-pipeline trainer hands
recurrent state (and state gradients) between stages with.

Every communication op carries its kind and size as ``attrs["collective"]``
and ``attrs["bytes"]``; telemetry and the collective lint read them off the
timelines after the run.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.gpu.device import SimulatedGPU
from repro.gpu.interconnect import Interconnect
from repro.gpu.timeline import TimelineOp

#: the per-device communication engine collectives occupy
RESOURCE_PEER_LINK = "peer_link"
#: the FIFO stream collectives are issued on (mirrors NCCL's comm stream)
COMM_STREAM = "comm"

#: per-device dependency lists: one sequence of ops per group member
PerDeviceDeps = Optional[Sequence[Optional[Sequence[TimelineOp]]]]


class DeviceGroup:
    """Coordinates ``K`` simulated-GPU timelines plus their interconnect."""

    def __init__(
        self, devices: Sequence[SimulatedGPU], *, interconnect_kind: str = "nvlink"
    ) -> None:
        if not devices:
            raise ValueError("devices must not be empty")
        self.devices: List[SimulatedGPU] = list(devices)
        self.interconnect = Interconnect(len(self.devices), kind=interconnect_kind)
        #: accumulated seconds per collective kind (single-device view)
        self.collective_seconds: Dict[str, float] = {}

    # ------------------------------------------------------------------ container
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self) -> Iterator[SimulatedGPU]:
        return iter(self.devices)

    def __getitem__(self, index: int) -> SimulatedGPU:
        return self.devices[index]

    # ------------------------------------------------------------------ collectives
    def _ready_time(self, per_device_deps: PerDeviceDeps, not_before: float) -> float:
        ready = max(0.0, not_before)
        for index, device in enumerate(self.devices):
            timeline = device.timeline
            ready = max(
                ready,
                timeline.resource_free_at(RESOURCE_PEER_LINK),
                timeline.stream_free_at(COMM_STREAM),
            )
            deps = per_device_deps[index] if per_device_deps is not None else None
            if deps:
                ready = max(ready, max(op.end for op in deps))
        return ready

    def _collective(
        self,
        kind: str,
        label: str,
        seconds: float,
        nbytes: float,
        depends_on: PerDeviceDeps,
        not_before: float,
    ) -> List[TimelineOp]:
        if depends_on is not None and len(depends_on) != len(self.devices):
            raise ValueError(
                f"depends_on must list one entry per device "
                f"({len(self.devices)}), got {len(depends_on)}"
            )
        start = self._ready_time(depends_on, not_before)
        ops = [
            device.timeline.submit(
                label=label,
                kind="collective",
                resource=RESOURCE_PEER_LINK,
                duration=seconds,
                stream=COMM_STREAM,
                not_before=start,
                attrs={"collective": kind, "bytes": float(nbytes)},
            )
            for device in self.devices
        ]
        self.collective_seconds[kind] = self.collective_seconds.get(kind, 0.0) + seconds
        return ops

    def all_reduce(
        self,
        nbytes: float,
        *,
        label: str = "all_reduce",
        depends_on: PerDeviceDeps = None,
    ) -> List[TimelineOp]:
        """Ring all-reduce of an ``nbytes`` buffer; returns one op per device."""
        seconds = self.interconnect.all_reduce_seconds(nbytes)
        return self._collective("all_reduce", label, seconds, nbytes, depends_on, 0.0)

    def all_gather(
        self,
        nbytes_per_device: float,
        *,
        label: str = "all_gather",
        depends_on: PerDeviceDeps = None,
    ) -> List[TimelineOp]:
        """Ring all-gather where each device contributes ``nbytes_per_device``."""
        seconds = self.interconnect.all_gather_seconds(nbytes_per_device)
        return self._collective("all_gather", label, seconds, nbytes_per_device, depends_on, 0.0)

    def halo_exchange(
        self,
        bytes_per_device: Sequence[float],
        *,
        label: str = "halo_exchange",
        depends_on: PerDeviceDeps = None,
    ) -> List[TimelineOp]:
        """Neighbor exchange of halo rows; cost bounded by the busiest device."""
        if len(bytes_per_device) != len(self.devices):
            raise ValueError(
                f"bytes_per_device must list one entry per device "
                f"({len(self.devices)}), got {len(bytes_per_device)}"
            )
        heaviest = max(float(b) for b in bytes_per_device)
        seconds = self.interconnect.halo_exchange_seconds(heaviest)
        return self._collective("halo_exchange", label, seconds, heaviest, depends_on, 0.0)

    # ------------------------------------------------------------------ point to point
    def send(
        self,
        src: int,
        dst: int,
        nbytes: float,
        *,
        label: str = "p2p",
        depends_on: Optional[Sequence[TimelineOp]] = None,
    ) -> Tuple[TimelineOp, TimelineOp]:
        """Point-to-point copy from ``src`` to ``dst`` over the peer link.

        Returns the ``(send_op, recv_op)`` pair: one op on each endpoint's
        timeline, covering the same interval and occupying both devices'
        ``peer_link`` engines for the transfer duration (a busy link delays
        collectives and further sends alike).  Dependents on the receiving
        device should wait on ``recv_op`` — that is the cross-device edge the
        pipeline trainer uses to hand the recurrent state to the next stage.

        Unlike the collectives, ``depends_on`` is a plain op sequence (only
        the two endpoints participate, so there is no per-device fan-out).
        """
        for name, device in (("src", src), ("dst", dst)):
            if not 0 <= device < len(self.devices):
                raise ValueError(
                    f"{name} {device} out of range [0, {len(self.devices)})"
                )
        if src == dst:
            raise ValueError(f"src and dst must differ, both are {src}")
        seconds = self.interconnect.peer_seconds(nbytes, src, dst)
        ready = 0.0
        if depends_on:
            ready = max(ready, max(op.end for op in depends_on))
        for index in (src, dst):
            timeline = self.devices[index].timeline
            ready = max(
                ready,
                timeline.resource_free_at(RESOURCE_PEER_LINK),
                timeline.stream_free_at(COMM_STREAM),
            )
        send_op, recv_op = (
            self.devices[index].timeline.submit(
                label=f"{label}_{suffix}",
                kind="collective",
                resource=RESOURCE_PEER_LINK,
                duration=seconds,
                stream=COMM_STREAM,
                not_before=ready,
                attrs={
                    "collective": "peer_transfer",
                    "bytes": float(nbytes),
                    "peer": peer,
                },
            )
            for index, suffix, peer in ((src, "send", dst), (dst, "recv", src))
        )
        self.collective_seconds["peer_transfer"] = (
            self.collective_seconds.get("peer_transfer", 0.0) + seconds
        )
        return send_op, recv_op

    def barrier(self) -> List[TimelineOp]:
        """Zero-duration synchronization point across all devices.

        A barrier is only passed once every device has drained *all* its
        previously scheduled work, so it waits on each device's current
        makespan, not just the communication engine.
        """
        return self._collective("barrier", "barrier", 0.0, 0.0, None, self.makespan())

    # ------------------------------------------------------------------ metrics
    def makespan(self) -> float:
        """End time of the last op on any device (the group's wall clock)."""
        return max(device.elapsed_seconds() for device in self.devices)

    def device_seconds(self) -> List[float]:
        return [device.elapsed_seconds() for device in self.devices]

    def breakdown(self) -> Dict[str, float]:
        """Seconds per op kind summed across devices, plus per-collective totals.

        Compute/copy kinds add up across devices (the work is genuinely
        split), but one collective occupies *every* device's comm engine for
        the same interval — summing those K identical ops would overstate
        communication K-fold, so the ``collective`` total is the single-clock
        view, consistent with the per-kind ``collective_*`` entries.
        """
        totals: Dict[str, float] = {}
        for device in self.devices:
            for kind, seconds in device.timeline.kind_seconds().items():
                if kind != "collective":
                    totals[kind] = totals.get(kind, 0.0) + seconds
        if self.collective_seconds:
            totals["collective"] = sum(self.collective_seconds.values())
        for kind, seconds in self.collective_seconds.items():
            totals[f"collective_{kind}"] = seconds
        totals["makespan"] = self.makespan()
        return totals

    def reset(self) -> None:
        for device in self.devices:
            device.reset()
        self.collective_seconds.clear()
