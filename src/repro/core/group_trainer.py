"""Shared base of the multi-device PiPAD trainers.

:class:`GroupTrainer` runs the paper's §4 trainer numerics unchanged and
charges the work to a :class:`~repro.gpu.device_group.DeviceGroup` of ``K``
simulated GPUs.  It owns everything the data-parallel
(:class:`~repro.core.distributed_trainer.DistributedTrainer`) and frame-
pipeline (:class:`~repro.core.pipeline_trainer.PipelineTrainer`) trainers
share:

- the group itself: ``K-1`` extra devices next to the lead device, one
  :class:`~repro.core.datapipe.Prefetcher` and (when enabled) one feature
  cache per device;
- the group clock (:meth:`_sim_now`) and the per-device gating ops that the
  next kernels on each device wait for (``_device_ready``);
- the ring ``all_reduce`` that combines the replicas' weight gradients after
  every frame's backward pass;
- group-wide reporting: :meth:`train` re-aggregates the result across all
  devices, and :meth:`_extra_metrics` adds the collective and per-device
  keys.

Both take one :class:`GroupConfig` (device count, interconnect and the
partition/schedule strategies).  Subclasses decide only how a partition's
transfer, forward kernels and backward kernels land on the devices.  Preparing epochs, and every epoch of
a one-device group, take the single-device path (:meth:`_grouped` is
false), so a group of one schedules exactly what
:class:`~repro.core.trainer.PiPADTrainer` schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.base import TrainerConfig
from repro.baselines.results import TrainingResult
from repro.core.config import PiPADConfig
from repro.core.datapipe import DataPipeConfig, Prefetcher
from repro.core.trainer import PiPADTrainer
from repro.gpu.device import SimulatedGPU
from repro.gpu.device_group import DeviceGroup
from repro.gpu.interconnect import INTERCONNECT_KINDS
from repro.gpu.timeline import TimelineOp
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.partition import SCHEDULE_MODES
from repro.memory import MemoryConfig
from repro.utils.validation import check_choice, check_positive

#: ``TrainingResult.extras`` keys itemizing the collective times of a group
#: run (written by :meth:`GroupTrainer._extra_metrics` from
#: ``DeviceGroup.collective_seconds``; consumed by the scaling experiments and
#: the :class:`~repro.api.engine.RunReport` collective breakdown)
COLLECTIVE_KEYS = (
    "halo_exchange_seconds",
    "all_gather_seconds",
    "all_reduce_seconds",
    "peer_transfer_seconds",
)


@dataclass(frozen=True)
class GroupConfig:
    """Knobs of a multi-device group, shared by both group trainers."""

    #: number of devices the work is sharded across; a group of one is the
    #: reference of scaling sweeps (same trainer class, no collectives)
    num_devices: int = 1
    #: peer-link model between devices (``"nvlink"`` or ``"pcie"``)
    interconnect: str = "nvlink"
    #: stage-assignment strategy of the pipeline's frame partitioner
    #: (``"round_robin"`` or ``"blocked"``)
    schedule: str = "round_robin"

    def __post_init__(self) -> None:
        check_positive("num_devices", self.num_devices)
        check_choice("interconnect", self.interconnect, INTERCONNECT_KINDS, "kinds")
        check_choice("schedule", self.schedule, SCHEDULE_MODES, "schedules")


class GroupTrainer(PiPADTrainer):
    """PiPAD training charged to a group of ``num_devices`` simulated GPUs."""

    def __init__(
        self,
        graph: DynamicGraph,
        config: Optional[TrainerConfig] = None,
        pipad_config: Optional[PiPADConfig] = None,
        group_config: Optional[GroupConfig] = None,
        data_config: Optional[DataPipeConfig] = None,
        memory_config: Optional[MemoryConfig] = None,
    ) -> None:
        # PiPADTrainer.__init__ sizes the feature working set through
        # _feature_shards() before the group exists.
        self.group_config = group_config or GroupConfig()
        num_devices = self.group_config.num_devices
        super().__init__(graph, config, pipad_config, data_config, memory_config)
        devices: List[SimulatedGPU] = [self.device]
        devices += [
            SimulatedGPU(
                self.config.gpu,
                self.config.pcie,
                self.config.host,
                use_cuda_graph=self.use_cuda_graph,
            )
            for _ in range(num_devices - 1)
        ]
        self.group = DeviceGroup(
            devices=devices, interconnect_kind=self.group_config.interconnect
        )
        #: one prefetcher per device: each device preps/ships its own work on
        #: its own PCIe link / host stream.  Device 0 reuses the single-device
        #: prefetcher so gating state stays in one place.
        self.prefetchers: List[Prefetcher] = [self.prefetcher] + [
            Prefetcher(self.datapipe, dev, device_index=index)
            for index, dev in enumerate(devices[1:], start=1)
        ]
        if self.feature_cache is not None:
            # One cache per device, sized against that device's own HBM.
            self.feature_caches += [
                self._build_feature_cache(dev) for dev in devices[1:]
            ]
            for prefetcher, cache in zip(self.prefetchers, self.feature_caches):
                prefetcher.cache = cache
        self._gradient_bytes = float(
            sum(p.data.nbytes for p in self.model.parameters())
        )
        #: bytes per state element (the hidden state is produced by the model,
        #: so it carries the parameter dtype)
        self._state_itemsize = float(
            self.model.parameters()[0].data.dtype.itemsize
        )
        #: per-device ops the next kernels on that device must wait for
        self._device_ready: List[List[TimelineOp]] = [[] for _ in devices]

    def _sim_now(self) -> float:
        return self.group.makespan()

    def _feature_shards(self) -> int:
        return self.group_config.num_devices

    def _grouped(self) -> bool:
        """Whether this epoch fans work out across more than one device."""
        return not self._preparing and self.group.num_devices > 1

    def _all_reduce_gradients(
        self, per_device_last: Sequence[Sequence[TimelineOp]]
    ) -> List[TimelineOp]:
        """Combine the replicas' weight gradients before the optimizer step.

        Every device holds partial gradients; the next frame's kernels on
        each device wait for its share of the reduce.  The lead device's op
        carries the synchronized end time, so the base class's
        ``last_compute`` chaining stays correct.
        """
        reduce_ops = self.group.all_reduce(
            self._gradient_bytes,
            label="grad_all_reduce",
            depends_on=per_device_last,
        )
        self._device_ready = [[op] for op in reduce_ops]
        return [reduce_ops[0]]

    # ------------------------------------------------------------------ reporting
    def train(self, epochs: Optional[int] = None) -> TrainingResult:
        """Train and report group-wide quantities.

        The base class fills the result from the lead device, which in a
        multi-device run only carries its share of the work; every extensive
        counter is therefore re-aggregated across the whole group so the
        record describes the run, not one device.  ``epoch_metrics`` stay the
        lead-device view (their simulated seconds track the group clock —
        collectives keep the devices in lockstep — but their kind-seconds
        are device-local).
        """
        result = super().train(epochs)
        group = self.group
        result.simulated_seconds = group.makespan()
        result.breakdown = group.breakdown()
        if group.num_devices > 1:
            category: Dict[str, float] = {}
            for device in group:
                for cat, seconds in device.category_seconds().items():
                    category[cat] = category.get(cat, 0.0) + seconds
            result.category_seconds = category
            result.kernel_launches = sum(
                stats.launches
                for device in group
                for stats in device.kernel_stats.values()
            )
            result.peak_memory_bytes = max(d.peak_bytes for d in group)
            result.memory_requests = sum(
                d.memory_statistics()["requests"] for d in group
            )
            result.memory_transactions = sum(
                d.memory_statistics()["transactions"] for d in group
            )
            result.gpu_utilization = float(
                np.mean([d.gpu_utilization() for d in group])
            )
            result.sm_utilization = float(
                np.mean([d.sm_utilization() for d in group])
            )
        return result

    def _extra_metrics(self) -> Dict[str, float]:
        extras = super()._extra_metrics()
        if self.group.num_devices > 1:
            extras["prefetch_items"] = float(
                sum(p.items_scheduled for p in self.prefetchers)
            )
            extras["prefetch_host_seconds"] = sum(
                p.host_seconds_total for p in self.prefetchers
            )
        extras["num_devices"] = float(self.group.num_devices)
        for kind, seconds in self.group.collective_seconds.items():
            extras[f"{kind}_seconds"] = seconds
        device_seconds = self.group.device_seconds()
        extras["device_seconds_max"] = float(max(device_seconds))
        extras["device_seconds_min"] = float(min(device_seconds))
        return extras
