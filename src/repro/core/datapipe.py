"""Staged data pipeline with transparent, depth-bounded prefetching.

Every partition moves from host memory onto the device through one chain of
stages —

    slice  →  gather  →  pin  →  h2d

(``slice`` builds the partition's batched index structures, ``gather``
collects the feature/adjacency rows into one contiguous staging buffer,
``pin`` copies it into page-locked memory, ``h2d`` crosses the PCIe link;
``pin`` is left out when ``pin_memory`` is off) — and a :class:`Prefetcher`
schedules item ``i``'s host stages while item ``i - 1`` (.. ``i - depth``)
still computes, the GraphBolt-style bounded prefetch buffer.  Only timeline
accounting depends on the pipe: the numerics
(:class:`~repro.core.data_prep.PartitionData` and everything downstream)
are the same for every depth and pinning choice, so losses and serving
outputs stay bit-identical.

Depth semantics on the deterministic list-scheduler: the first host stage
of item ``i`` depends on the *consumption* op (the kernels that read the
transferred data) of item ``i - depth - 1``, so at most ``depth`` items are
prepared ahead of the one currently computing.  ``depth == 0`` reproduces
fully serialized prep — item ``i``'s slice cannot start until item
``i - 1``'s kernels finished — which is also what the ``enable_pipeline``
ablation switch forces.

Depth 0 additionally models the *single* synchronous host thread: without
prefetch workers, one Python loop prepares every item in program order —
across all of a trainer's devices.  All prefetchers sharing a
:class:`DataPipe` (one per pipeline stage, per distributed shard) therefore
chain their depth-0 host stages through ``DataPipe.last_host_op`` and gate
them on ``DataPipe.last_consumed_op``, the most recent consumption anywhere
in the trainer: the loop only reaches item ``i``'s prep after the kernels
reading item ``i - 1`` — possibly on a different device — were launched.
With ``depth >= 1`` each device gets its own prefetch worker, so host
stages serialize (and the depth bound counts) per device only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.data_prep import DataPreparer, PartitionData
from repro.gpu.device import SimulatedGPU
from repro.gpu.spec import HostSpec
from repro.gpu.timeline import TimelineOp
from repro.graph.snapshot import GraphSnapshot
from repro.memory.cache import TIER_PINNED, AccessPlan
from repro.utils.validation import check_int, check_non_negative

#: canonical stage names, in execution order
STAGE_SLICE = "slice"
STAGE_GATHER = "gather"
STAGE_PIN = "pin"
STAGE_H2D = "h2d"

#: stage name -> human description (``python -m repro list`` shows these)
STAGE_REGISTRY: Dict[str, str] = {
    STAGE_SLICE: "build the partition's batched index structures (host)",
    STAGE_GATHER: "gather feature/adjacency rows into one staging buffer (host)",
    STAGE_PIN: "copy the staging buffer into page-locked memory (host)",
    STAGE_H2D: "ship the staged partition across the PCIe link (copy engine)",
}


@dataclass(frozen=True)
class DataPipeConfig:
    """Plain-data configuration of the staged datapipe.

    A run spec's ``data`` section extends it (``DataSpec`` adds only the
    stage chain's name), so the core never imports :mod:`repro.api`.
    """

    #: max items prepared ahead of the one currently computing; 0 serializes
    prefetch_depth: int = 2
    #: stage the transfer through page-locked memory (adds the ``pin`` stage;
    #: unpinned transfers pay the PCIe pageable penalty instead)
    pin_memory: bool = True

    def __post_init__(self) -> None:
        check_int("prefetch_depth", self.prefetch_depth)
        check_non_negative("prefetch_depth", self.prefetch_depth)

    def for_pipeline(self, enabled: bool) -> "DataPipeConfig":
        """This config, or with the pipeline ablated: fully serialized,
        unpinned prep whatever the declared depth."""
        if enabled:
            return self
        return dataclasses.replace(self, prefetch_depth=0, pin_memory=False)


@dataclass(frozen=True)
class PipeItem:
    """One unit of work flowing through the pipe: a partition's movable data."""

    #: label suffix for the scheduled ops (e.g. ``"p3"`` or ``"b7"``)
    label: str
    #: snapshots in the partition (drives the per-snapshot slice cost)
    num_snapshots: int
    #: host→device bytes after cache/residency accounting
    transfer_bytes: float
    #: scales the ``slice`` stage only (distributed shards index a fraction
    #: of the nodes; ``gather``/``pin`` already follow the sharded bytes)
    slice_scale: float = 1.0
    #: bytes the ``gather`` stage must collect; ``None`` means
    #: ``transfer_bytes``.  The feature cache sets this lower when rows
    #: already sit in the pinned-host staging tier (skip gather+pin but
    #: still pay the h2d copy).
    gather_bytes: Optional[float] = None
    #: bytes the ``pin`` stage must copy into page-locked memory; ``None``
    #: means ``transfer_bytes``
    pin_bytes: Optional[float] = None
    #: the feature-cache lookup that resolved this item's tier traffic
    #: (see :func:`apply_cache_plan`); the ``gather`` op carries its counts
    #: as ``cache_*`` attrs and reads its block keys (``hb_reads``, which the
    #: happens-before race detector matches against delta invalidations)
    cache: Optional[AccessPlan] = None


def apply_cache_plan(item: PipeItem, plan: AccessPlan) -> PipeItem:
    """Shrink an item's stage bytes by what the cache tiers absorb.

    GPU hits skip the whole gather -> pin -> h2d path; pinned hits skip
    gather and pin but still cross PCIe.
    """
    total = item.transfer_bytes
    gather = max(0.0, total - plan.gpu_bytes - plan.pinned_bytes)
    return dataclasses.replace(
        item,
        transfer_bytes=max(0.0, total - plan.gpu_bytes),
        gather_bytes=gather,
        pin_bytes=gather,
        cache=plan,
    )


def _cache_lookup_facts(plan: AccessPlan) -> Dict[str, object]:
    """The attrs that record one feature-cache lookup on the gather op that
    consumed it."""
    facts: Dict[str, object] = {}
    if plan.block_keys:
        facts["hb_reads"] = list(plan.block_keys)
    facts["cache_gpu_bytes"] = plan.gpu_bytes
    facts["cache_pinned_bytes"] = plan.pinned_bytes
    facts["cache_miss_bytes"] = plan.miss_bytes
    facts["cache_hits"] = plan.gpu_hits + plan.pinned_hits + plan.spill_hits
    facts["cache_misses"] = plan.misses
    return facts


class DataPipe:
    """Composable stage pipeline over a :class:`DataPreparer`.

    Owns the preparer (partition construction + cache) and knows the analytic
    cost of every stage; the :class:`Prefetcher` turns those costs into
    timeline ops on a concrete device.
    """

    def __init__(
        self,
        config: Optional[DataPipeConfig] = None,
        host: Optional[HostSpec] = None,
        *,
        use_sliced_csr: bool = True,
    ) -> None:
        self.config = config or DataPipeConfig()
        self.host = host or HostSpec()
        self.preparer = DataPreparer(self.host, use_sliced_csr=use_sliced_csr)
        self.stages: Tuple[str, ...] = tuple(
            stage
            for stage in STAGE_REGISTRY
            if stage != STAGE_PIN or self.config.pin_memory
        )
        #: last host-stage op of the synchronous (depth-0) path; depth-0
        #: prefetchers sharing this pipe chain their host stages through it,
        #: modelling the one host thread that prepares items in program order
        self.last_host_op: Optional[TimelineOp] = None
        #: most recent consumption op across every prefetcher of this pipe;
        #: the depth-0 gate, since the synchronous loop only reaches item
        #: ``i``'s prep after item ``i - 1``'s kernels (any device) ran
        self.last_consumed_op: Optional[TimelineOp] = None

    # ------------------------------------------------------------------ partitions
    def partition(self, snapshots: Sequence[GraphSnapshot]) -> PartitionData:
        """Prepare (or fetch from cache) one snapshot group's partition data."""
        return self.preparer._prepare(snapshots)

    # ------------------------------------------------------------------ stage costs
    @property
    def host_stages(self) -> Tuple[str, ...]:
        return tuple(s for s in self.stages if s != STAGE_H2D)

    @property
    def pinned(self) -> bool:
        return self.config.pin_memory

    def stage_seconds(self, stage: str, item: PipeItem) -> float:
        """Analytic host seconds of one host stage for one item."""
        if stage == STAGE_SLICE:
            return item.num_snapshots * self.host.snapshot_prep_us * 1e-6 * item.slice_scale
        if stage == STAGE_GATHER:
            nbytes = item.transfer_bytes if item.gather_bytes is None else item.gather_bytes
            return nbytes / (self.host.gather_bandwidth_gbs * 1e9)
        if stage == STAGE_PIN:
            nbytes = item.transfer_bytes if item.pin_bytes is None else item.pin_bytes
            return nbytes / (self.host.pin_bandwidth_gbs * 1e9)
        raise ValueError(f"{stage!r} is not a host stage of this pipe")


class Prefetcher:
    """Depth-bounded scheduler of pipe items onto one simulated device.

    One prefetcher per device: the single-device trainer owns one, the
    pipeline trainer one per stage, the distributed trainer one per shard and
    the serving scheduler one per replica.  ``schedule`` lays the item's host
    stages on the CPU stream and its transfer on the copy engine, gated so at
    most ``depth`` items sit prepared-but-unconsumed; ``mark_consumed``
    registers the compute op that read the item, releasing the oldest slot.

    Every stage op carries its stage name as ``attrs["stage"]``; telemetry
    reads the prefetch spans and per-stage totals off the timeline after the
    run.
    """

    def __init__(
        self,
        pipe: DataPipe,
        device: SimulatedGPU,
        *,
        device_index: int = 0,
        domain: str = "train",
    ) -> None:
        self.pipe = pipe
        self.device = device
        self.depth = pipe.config.prefetch_depth
        self.device_index = device_index
        self.domain = domain
        #: consumption op of each scheduled item, in schedule order
        self._consumed: List[Optional[TimelineOp]] = []
        self._scheduled = 0
        self.items_scheduled = 0
        self.host_seconds_total = 0.0
        #: the device's :class:`~repro.memory.cache.FeatureCache`, when the
        #: run declares one — the pin stage charges its staging buffers
        #: against the cache's pinned tier (``pinned_budget_mb`` covers
        #: residency *and* in-flight staging).  Wired by the trainer/serving
        #: engine after construction.
        self.cache = None
        #: live staging reservations as ``(h2d_end_seconds, charged_bytes)``;
        #: a reservation is released once the simulated clock (the next pin
        #: op's start) passes its transfer's completion
        self._staging: List[Tuple[float, float]] = []

    # ------------------------------------------------------------------ gating
    def _overlapping(self) -> bool:
        return self.depth > 0

    def _gate_ops(self) -> List[TimelineOp]:
        """Ops the next item's first host stage must wait for.

        Item ``i`` may start preparing while item ``i - 1`` .. ``i - depth``
        compute, so it waits for item ``i - depth - 1``'s consumption.  With
        depth 0 that collapses to "wait for the previous item's kernels".
        """
        index = self._scheduled - self.depth - 1
        if 0 <= index < len(self._consumed):
            op = self._consumed[index]
            return [op] if op is not None else []
        return []

    # ------------------------------------------------------------------ scheduling
    def schedule(
        self,
        item: PipeItem,
        *,
        depends_on: Optional[Sequence[TimelineOp]] = None,
        not_before: float = 0.0,
    ) -> List[TimelineOp]:
        """Lay one item's stages on the device timeline; returns the h2d op.

        ``depends_on`` gates the first host stage (the serving path passes
        the delta op that produced the window state); ``not_before`` pins the
        earliest start (batch formation time).
        """
        host_stream = "cpu" if self._overlapping() else "default"
        copy_stream = "copy" if self._overlapping() else "default"
        gate = self._gate_ops() + (list(depends_on) if depends_on else [])
        if not self._overlapping():
            # One synchronous host thread: chain behind the previous item's
            # host stages and behind the latest consumption, even when both
            # happened on a different device of the same trainer.
            gate = gate + [
                op
                for op in (self.pipe.last_host_op, self.pipe.last_consumed_op)
                if op is not None
            ]
        previous: List[TimelineOp] = gate
        pin_op: Optional[TimelineOp] = None
        staging_key: Optional[str] = None
        for stage in self.pipe.host_stages:
            seconds = self.pipe.stage_seconds(stage, item)
            self.host_seconds_total += seconds
            attrs: Dict[str, object] = {"stage": stage}
            if stage == STAGE_GATHER and item.cache is not None:
                attrs.update(_cache_lookup_facts(item.cache))
            if stage == STAGE_PIN:
                # The pin stage fills a staging buffer the h2d drains; the key
                # is unique per occurrence (labels repeat across epochs).
                staging_key = f"staging:{self.domain}{self.device_index}:{self.items_scheduled}"
                attrs["hb_writes"] = [staging_key]
            op = self.device.host_op(
                seconds,
                label=f"{stage}_{item.label}",
                stream=host_stream,
                depends_on=previous or None,
                not_before=not_before,
                attrs=attrs,
            )
            if stage == STAGE_PIN:
                pin_op = op
            previous = [op]
            if not self._overlapping():
                self.pipe.last_host_op = op
        transfer_attrs: Dict[str, object] = {"stage": STAGE_H2D}
        if staging_key is not None:
            transfer_attrs["hb_reads"] = [staging_key]
        transfer = self.device.transfer_h2d(
            item.transfer_bytes,
            label=f"h2d_{item.label}",
            stream=copy_stream,
            pinned=self.pipe.pinned,
            depends_on=previous or None,
            not_before=not_before,
            attrs=transfer_attrs,
        )
        if pin_op is not None:
            self._account_staging(item, pin_op, transfer)
        self._consumed.append(None)  # slot; filled by mark_consumed in order
        self._scheduled += 1
        self.items_scheduled += 1
        return [transfer]

    def _account_staging(
        self, item: PipeItem, pin_op: TimelineOp, transfer: TimelineOp
    ) -> None:
        """Charge this item's pin-stage staging buffer against the cache.

        The reservation lives from the pin op's start until the transfer
        drains the buffer; earlier reservations whose h2d finished by then
        are released first (the simulated clock only moves forward through
        successive pin starts on one device).  The pin and h2d ops carry the
        acquire/release annotations the memory-watermark checker replays.
        """
        if self.cache is None:
            return
        nbytes = item.transfer_bytes if item.pin_bytes is None else item.pin_bytes
        if nbytes <= 0:
            return
        live: List[Tuple[float, float]] = []
        for h2d_end, charged in self._staging:
            if h2d_end <= pin_op.start:
                self.cache.release_staging(charged)
            else:
                live.append((h2d_end, charged))
        charged = self.cache.reserve_staging(nbytes)
        live.append((transfer.end, charged))
        self._staging = live
        tier = self.cache.tiers[TIER_PINNED]
        acquire: Dict[str, object] = {
            "pinned_acquire_bytes": charged,
            "pinned_tier_used_bytes": tier.used_bytes,
        }
        if tier.capacity_bytes is not None:
            acquire["pinned_budget_bytes"] = float(tier.capacity_bytes)
        timeline = self.device.timeline
        timeline.annotate(pin_op, **acquire)
        timeline.annotate(transfer, pinned_release_bytes=charged)

    def mark_consumed(self, ops: Sequence[TimelineOp]) -> None:
        """Register the compute op that read the oldest unconsumed item."""
        if ops:
            self.pipe.last_consumed_op = ops[-1]
        try:
            index = self._consumed.index(None)
        except ValueError:
            return  # nothing outstanding: consumption of an unscheduled item
        self._consumed[index] = ops[-1] if ops else self._consumed[index - 1] if index else None

    def stats(self) -> Dict[str, float]:
        return {
            "prefetch_depth": float(self.depth),
            "prefetch_items": float(self.items_scheduled),
            "prefetch_host_seconds": self.host_seconds_total,
        }


__all__ = [
    "DataPipe",
    "DataPipeConfig",
    "PipeItem",
    "Prefetcher",
    "STAGE_GATHER",
    "STAGE_H2D",
    "STAGE_PIN",
    "STAGE_REGISTRY",
    "STAGE_SLICE",
    "apply_cache_plan",
]
