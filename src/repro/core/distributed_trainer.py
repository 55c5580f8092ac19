"""Data-parallel multi-GPU training over node-sharded snapshot frames.

:class:`DistributedTrainer` extends
:class:`~repro.core.group_trainer.GroupTrainer` (which owns the device
group, the per-device prefetchers and caches, the gradient all-reduce and
the group-wide reporting) with the node-sharded execution model of
:mod:`repro.distributed`:

- the node set is sharded across ``K`` devices by a
  :class:`~repro.graph.partition.GraphPartitioner` (edge-balanced ranges
  with halo-node bookkeeping);
- every device runs the PiPAD pipeline on its shard — per-shard transfers,
  overlap-decomposed adjacencies and kernels scaled to the shard's share of
  the work — on its own timeline inside a
  :class:`~repro.gpu.device_group.DeviceGroup`;
- remote inputs move as collectives on the interconnect: a ``halo_exchange``
  ships neighbor features before each partition's aggregation, an
  ``all_gather`` synchronizes the recurrent hidden state after each
  partition, and the partial gradients of the shard replicas are combined by
  a ring ``all_reduce`` after every frame's backward pass.

Numerics are unchanged: the model still trains on the full graph exactly as
the single-GPU trainer does (losses are bit-identical); the device group
only accounts for *when* the sharded execution of the same work would finish
on ``K`` devices.  Preparing/profiling epochs run in the canonical manner on
the lead device, mirroring PiPAD's single-device preparing phase.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.base import TrainerConfig
from repro.core.config import PiPADConfig
from repro.core.datapipe import DataPipeConfig, PipeItem, apply_cache_plan
from repro.core.group_trainer import GroupConfig, GroupTrainer
from repro.gpu.kernel_cost import CATEGORY_AGGREGATION, KernelCost
from repro.gpu.timeline import TimelineOp
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.partition import GraphPartitioner
from repro.graph.snapshot import GraphSnapshot
from repro.memory import MemoryConfig

#: smallest per-device cost fraction (guards ``KernelCost.scaled`` against
#: degenerate shards that own nodes but no edges in some snapshot)
_MIN_FRACTION = 1e-9


class DistributedTrainer(GroupTrainer):
    """PiPAD training sharded node-wise across a simulated device group."""

    method_name = "PiPAD-DP"

    def __init__(
        self,
        graph: DynamicGraph,
        config: Optional[TrainerConfig] = None,
        pipad_config: Optional[PiPADConfig] = None,
        group_config: Optional[GroupConfig] = None,
        data_config: Optional[DataPipeConfig] = None,
        memory_config: Optional[MemoryConfig] = None,
    ) -> None:
        super().__init__(
            graph, config, pipad_config, group_config, data_config, memory_config
        )
        num_devices = self.group_config.num_devices
        self.partitioner = GraphPartitioner(
            num_devices, mode=self.group_config.partition_mode
        )
        # Cheap provisional plan; _run_preprocessing replans (and computes the
        # halo/edge statistics, an O(devices x snapshots x edges) sharding
        # pass) right before the first steady-state frame can consume them.
        # The per-device feature caches key against ``self.boundaries``.
        self.boundaries = self.partitioner.plan(graph.snapshots)
        self._node_fractions = self.partitioner.node_fractions(self.boundaries)
        self._edge_fractions = np.full(num_devices, 1.0 / num_devices)
        self._halo_nodes = np.zeros(num_devices)
        #: bytes per feature element (halo rows ship in the dataset's dtype)
        self._feature_itemsize = float(graph.snapshots[0].features.dtype.itemsize)
        self._halo_bytes_total = 0.0

    # ------------------------------------------------------------------ cost sharing
    def _cost_fraction(self, device: int, cost: KernelCost) -> float:
        """Share of one kernel's work that lands on ``device``'s shard.

        Aggregation work follows the shard's edges; dense update/RNN/
        elementwise work follows its node count.
        """
        if cost.category == CATEGORY_AGGREGATION:
            return max(float(self._edge_fractions[device]), _MIN_FRACTION)
        return max(float(self._node_fractions[device]), _MIN_FRACTION)

    def _halo_feature_bytes(self, device: int) -> float:
        return float(
            self._halo_nodes[device]
            * self.graph.feature_dim
            * self._feature_itemsize
            * self.scale
        )

    def _shard_state_bytes(self, device: int) -> float:
        """Hidden-state rows a device contributes to the post-partition sync."""
        nodes = float(self.boundaries[device + 1] - self.boundaries[device])
        return nodes * self._hidden_dim * self._state_itemsize * self.scale

    def _measured_node_weight(self) -> float:
        """Dense per-node work in units of per-edge aggregation work.

        Calibrated from the preparing-epoch kernel statistics, the same
        source the dynamic tuner feeds on; without them (``preparing_epochs
        == 0``) the node and edge masses are weighted equally.
        """
        mean_edges = float(
            np.mean([s.num_edges for s in self.graph.snapshots])
        )
        fallback = mean_edges / max(1.0, float(self.graph.num_nodes))
        stats = self.device.kernel_stats
        aggregation = stats[CATEGORY_AGGREGATION].seconds
        dense = sum(
            s.seconds for cat, s in stats.items() if cat != CATEGORY_AGGREGATION
        )
        if aggregation <= 0 or dense <= 0 or mean_edges == 0:
            return fallback
        per_edge = aggregation / mean_edges
        per_node = dense / float(self.graph.num_nodes)
        return per_node / per_edge

    def _replan(self) -> None:
        """Re-balance the shard boundaries once kernel statistics exist."""
        self.boundaries = self.partitioner.plan(
            self.graph.snapshots, node_weight=self._measured_node_weight()
        )
        self._node_fractions = self.partitioner.node_fractions(self.boundaries)
        self._edge_fractions = self.partitioner.edge_fractions(
            self.graph.snapshots, self.boundaries
        )
        self._halo_nodes = self.partitioner.mean_halo_nodes(
            self.graph.snapshots, self.boundaries
        )
        # Re-sharding remaps which device owns which node blocks; any cached
        # residency keyed against the old ranges is stale.
        for cache in self.feature_caches:
            cache.clear()

    def _run_preprocessing(self) -> None:
        super()._run_preprocessing()
        self._replan()

    # ------------------------------------------------------------------ execution overrides
    def _transfer_partition(
        self,
        snapshots: Sequence[GraphSnapshot],
        depends_on: Optional[Sequence[TimelineOp]],
    ) -> List[TimelineOp]:
        # Gated on the preparing phase alone, not on _grouped(): a one-device
        # group still looks its shard up in the per-device cache.
        if self._preparing:
            return super()._transfer_partition(snapshots, depends_on)
        total_bytes = self._partition_transfer_bytes(snapshots)
        transfer_ops: List[List[TimelineOp]] = []
        halo_bytes: List[float] = []
        for index, device in enumerate(self.group.devices):
            fraction = max(float(self._node_fractions[index]), _MIN_FRACTION)
            item = PipeItem(
                label=f"p{snapshots[0].timestep}",
                num_snapshots=len(snapshots),
                transfer_bytes=total_bytes * fraction,
                slice_scale=fraction,
            )
            if self.feature_cache is not None:
                plan = self._cache_plan(
                    snapshots,
                    index=index,
                    lo=int(self.boundaries[index]),
                    hi=int(self.boundaries[index + 1]),
                )
                item = apply_cache_plan(item, plan)
            transfer_ops.append(
                self.prefetchers[index].schedule(item, depends_on=depends_on)
            )
            halo_bytes.append(self._halo_feature_bytes(index))
        if self.group.num_devices == 1:
            return transfer_ops[0]
        self._halo_bytes_total += sum(halo_bytes)
        halo_ops = self.group.halo_exchange(
            halo_bytes,
            label=f"halo_p{snapshots[0].timestep}",
            depends_on=transfer_ops,
        )
        return halo_ops

    def _launch_partition_kernels(
        self,
        costs: Sequence[KernelCost],
        snapshots: Sequence[GraphSnapshot],
        transfer_ops: Sequence[TimelineOp],
        last_compute: Sequence[TimelineOp],
    ) -> List[TimelineOp]:
        if not self._grouped():
            return super()._launch_partition_kernels(
                costs, snapshots, transfer_ops, last_compute
            )
        compute_stream = self._compute_stream()
        per_device_last: List[List[TimelineOp]] = []
        for index, device in enumerate(self.group.devices):
            shard_costs = [c.scaled(self._cost_fraction(index, c)) for c in costs]
            self._dispatch(device, shard_costs, "dispatch")
            deps = list(transfer_ops) + list(last_compute) + self._device_ready[index]
            ops = device.launch_kernels(
                shard_costs,
                label=f"fwd_t{snapshots[0].timestep}",
                stream=compute_stream,
                depends_on=deps,
            )
            self.prefetchers[index].mark_consumed(ops[-1:])
            per_device_last.append(ops[-1:])
        # The recurrent state of remote nodes feeds the next partition's
        # aggregation, so shard results are all-gathered before moving on.
        sync_ops = self.group.all_gather(
            max(self._shard_state_bytes(k) for k in range(self.group.num_devices)),
            label=f"state_sync_t{snapshots[0].timestep}",
            depends_on=per_device_last,
        )
        self._device_ready = [[op] for op in sync_ops]
        # The lead device's sync op carries the synchronized end time, so the
        # base class's ``last_compute`` chaining stays correct.
        return [sync_ops[0]]

    def _launch_backward(
        self, costs: Sequence[KernelCost], last_compute: Sequence[TimelineOp]
    ) -> List[TimelineOp]:
        if not self._grouped():
            return super()._launch_backward(costs, last_compute)
        per_device_last: List[List[TimelineOp]] = []
        for index, device in enumerate(self.group.devices):
            shard_costs = [c.scaled(self._cost_fraction(index, c)) for c in costs]
            self._dispatch(device, shard_costs, "dispatch_bwd")
            ops = device.launch_kernels(
                shard_costs,
                label="backward",
                stream=self._compute_stream(),
                depends_on=list(last_compute) + self._device_ready[index],
            )
            per_device_last.append(ops[-1:])
        return self._all_reduce_gradients(per_device_last)

    # ------------------------------------------------------------------ reporting
    def _extra_metrics(self) -> Dict[str, float]:
        extras = super()._extra_metrics()
        extras["halo_feature_bytes"] = self._halo_bytes_total
        balance = np.array(self._edge_fractions, dtype=np.float64)
        extras["edge_fraction_spread"] = float(balance.max() - balance.min())
        return extras
