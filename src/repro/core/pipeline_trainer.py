"""Frame-pipeline parallelism: snapshot groups sharded across devices.

:class:`PipelineTrainer` is the multi-device analogue of the paper's Fig. 8
pipeline.  Like the data-parallel trainer it extends
:class:`~repro.core.group_trainer.GroupTrainer`, which owns the device group,
the per-device prefetchers and caches, the gradient all-reduce and the
group-wide reporting.  Where the data-parallel trainer shards the *node set*,
the pipeline trainer shards the *frame*: a
:class:`~repro.graph.partition.FramePartitioner` assigns each snapshot group
of a frame to one of ``K`` devices (a pipeline *stage*), and the stages
execute a 1F1B-style schedule —

- every stage prefetches its own groups' slices on its own PCIe link, so
  device ``d+1``'s transfer for group ``g+1`` hides behind device ``d``'s
  compute of group ``g`` (the cross-device generalization of partition-level
  transfer/compute overlap);
- the *aggregation* kernels of a group depend only on that group's
  transferred slices (a first-layer aggregation is a function of topology and
  raw features, the same observation inter-frame reuse is built on), so they
  run as soon as the data lands — in parallel across stages;
- the *dense* kernels (update GEMM, recurrent cell) consume the previous
  group's hidden state, which arrives as a point-to-point
  :meth:`~repro.gpu.device_group.DeviceGroup.send` on the ``peer_link``
  engine — this state chain is the pipeline's serial dependency, and the time
  a stage stalls on it beyond its own local readiness is accounted as
  **bubble time**;
- the backward pass runs the chain in reverse (state gradients hop stage to
  stage), aggregation backward drains off-chain per stage, and a ring
  ``all_reduce`` combines the replicas' weight gradients before the
  optimizer step, exactly as in the data-parallel trainer.

Numerics are untouched: the model trains on the full graph exactly as the
single-GPU PiPAD trainer does (losses are bit-identical — the preparing
epochs, tuner decisions and every forward/backward run the identical code
path); the device group only accounts for *when* the same work would finish
under the pipelined schedule.  The overlap-reuse cache is the existing
:class:`~repro.nn.aggregation.ReuseManager`: each stage's transfer sizing
consults the same cache, so reuse keeps cutting per-stage transfer volume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.base import TrainerConfig
from repro.core.config import PiPADConfig
from repro.core.datapipe import DataPipeConfig, PipeItem, apply_cache_plan
from repro.core.group_trainer import GroupConfig, GroupTrainer
from repro.gpu.device import SimulatedGPU
from repro.gpu.kernel_cost import CATEGORY_AGGREGATION, KernelCost
from repro.gpu.timeline import RESOURCE_COMPUTE, TimelineOp
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.frame import Frame
from repro.graph.partition import FramePartitioner
from repro.graph.snapshot import GraphSnapshot
from repro.memory import MemoryConfig


class PipelineTrainer(GroupTrainer):
    """PiPAD training with snapshot groups pipelined across a device group."""

    method_name = "PiPAD-PP"

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
        self.frame_partitioner = FramePartitioner(
            self.group_config.num_devices, schedule=self.group_config.schedule
        )
        #: stage of each group in the current frame (set per frame)
        self._assignment = np.zeros(0, dtype=np.int64)
        self._group_index = 0
        #: op producing the latest recurrent state, and the stage holding it
        self._state_op: Optional[TimelineOp] = None
        self._state_device = 0
        self._bubble_seconds = 0.0

    # ------------------------------------------------------------------ sizing
    def _stage_state_bytes(self) -> float:
        """Bytes handed between adjacent pipeline stages.

        Recurrent models carry the per-node hidden state; weight-evolving
        models (EvolveGCN) instead ship the evolved weight matrices, which
        are node-count independent.  The backward chain moves the matching
        gradients, so the same size applies in both directions.
        """
        if self.model.evolves_weights:
            return self._gradient_bytes
        return float(
            self.graph.num_nodes * self._hidden_dim * self._state_itemsize * self.scale
        )

    def _split_costs(
        self, costs: Sequence[KernelCost]
    ) -> "tuple[List[KernelCost], List[KernelCost]]":
        """(state-independent aggregation costs, state-dependent dense costs)."""
        aggregation = [c for c in costs if c.category == CATEGORY_AGGREGATION]
        dense = [c for c in costs if c.category != CATEGORY_AGGREGATION]
        return aggregation, dense

    # ------------------------------------------------------------------ frame hooks
    def _before_frame(self, frame: Frame, epoch: int) -> None:
        super()._before_frame(frame, epoch)
        if not self._grouped():
            return
        num_groups = len(self._make_partitions(frame))
        self._assignment = self.frame_partitioner.assign(num_groups)
        self._group_index = 0
        # Each frame re-initializes the recurrent state; the chain restarts.
        self._state_op = None
        self._state_device = 0

    def _transfer_partition(
        self,
        snapshots: Sequence[GraphSnapshot],
        depends_on: Optional[Sequence[TimelineOp]],
    ) -> List[TimelineOp]:
        if not self._grouped():
            return super()._transfer_partition(snapshots, depends_on)
        stage = int(self._assignment[self._group_index])
        item = PipeItem(
            label=f"p{snapshots[0].timestep}",
            num_snapshots=len(snapshots),
            transfer_bytes=self._partition_transfer_bytes(snapshots),
        )
        if self.feature_cache is not None:
            plan = self._cache_plan(
                snapshots, index=stage, lo=0, hi=self.graph.num_nodes
            )
            item = apply_cache_plan(item, plan)
        return self.prefetchers[stage].schedule(item, depends_on=depends_on)

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
        stage = int(self._assignment[self._group_index])
        device = self.group.devices[stage]
        stream = self._compute_stream()
        timestep = snapshots[0].timestep
        aggregation, dense = self._split_costs(costs)
        self._dispatch(device, costs, "dispatch")
        frame_ready = self._device_ready[stage]
        agg_ops = (
            device.launch_kernels(
                aggregation,
                label=f"fwd_agg_t{timestep}",
                stream=stream,
                depends_on=list(transfer_ops) + frame_ready,
            )
            if aggregation
            else []
        )
        # The state chain: the previous group's dense output feeds this
        # group's dense kernels — across stages it travels as a p2p transfer.
        state_deps: List[TimelineOp] = []
        if self._state_op is not None:
            if self._state_device != stage:
                _, recv_op = self.group.send(
                    self._state_device,
                    stage,
                    self._stage_state_bytes(),
                    label=f"state_t{timestep}",
                    depends_on=[self._state_op],
                )
                state_deps = [recv_op]
            else:
                state_deps = [self._state_op]
        local_deps = (agg_ops[-1:] if agg_ops else list(transfer_ops)) + frame_ready
        ops = self._launch_chained(
            device, dense, f"fwd_t{timestep}", stream, local_deps, state_deps
        )
        last = ops or agg_ops
        if last:
            self._state_op = last[-1]
            self._state_device = stage
        self.prefetchers[stage].mark_consumed(last[-1:])
        self._group_index += 1
        return last[-1:]

    def _launch_chained(
        self,
        device: SimulatedGPU,
        costs: List[KernelCost],
        label: str,
        stream: str,
        local_deps: List[TimelineOp],
        chain_deps: List[TimelineOp],
    ) -> Sequence[TimelineOp]:
        """Launch state-chained kernels and account their pipeline bubble.

        The bubble is the stall attributable to the cross-stage dependency
        alone: how much later the first kernel starts than it would have from
        purely local readiness (own transfers/aggregation, compute engine and
        stream order).  The first kernel records that local-ready time as
        ``attrs["bubble_from"]``, so the stall is visible on the timeline.
        """
        if not costs:
            return []
        timeline = device.timeline
        local_ready = max(
            [
                timeline.resource_free_at(RESOURCE_COMPUTE),
                timeline.stream_free_at(stream),
                *(op.end for op in local_deps),
            ]
        )
        ops = device.launch_kernels(
            costs,
            label=label,
            stream=stream,
            depends_on=local_deps + chain_deps,
        )
        bubble = ops[0].start - local_ready
        if bubble > 0.0:
            self._bubble_seconds += bubble
            timeline.annotate(ops[0], bubble_from=local_ready)
        return ops

    def _launch_backward(
        self, costs: Sequence[KernelCost], last_compute: Sequence[TimelineOp]
    ) -> List[TimelineOp]:
        if not self._grouped():
            return super()._launch_backward(costs, last_compute)
        num_groups = len(self._assignment)
        # ``split`` divides the extensive work; the launches are genuinely
        # split across groups too (unlike the data-parallel trainer, where
        # every replica issues the full kernel sequence on its shard).
        shares = [c.split(num_groups) for c in costs]
        share_launches = sum(c.launches for c in shares)
        aggregation, dense = self._split_costs(shares)
        stream = self._compute_stream()
        per_device_last: List[List[TimelineOp]] = [
            list(ready) for ready in self._device_ready
        ]
        chain_op: Optional[TimelineOp] = None
        chain_device = 0
        # Backward runs the stage chain in reverse: the state gradient hops
        # from the stage of group g to the stage of group g-1.
        for index in range(num_groups - 1, -1, -1):
            stage = int(self._assignment[index])
            device = self.group.devices[stage]
            device.dispatch(share_launches, label="dispatch_bwd", stream=stream)
            if chain_op is None:
                chain_deps = list(last_compute)
            elif chain_device != stage:
                _, recv_op = self.group.send(
                    chain_device,
                    stage,
                    self._stage_state_bytes(),
                    label=f"grad_p{index}",
                    depends_on=[chain_op],
                )
                chain_deps = [recv_op]
            else:
                chain_deps = [chain_op]
            dense_ops = self._launch_chained(
                device, dense, "backward", stream, per_device_last[stage], chain_deps
            )
            # Aggregation backward needs only this group's upstream gradient;
            # it drains off-chain while the chain continues on other stages.
            agg_ops = (
                device.launch_kernels(
                    aggregation,
                    label="backward_agg",
                    stream=stream,
                    depends_on=dense_ops[-1:] or chain_deps,
                )
                if aggregation
                else []
            )
            if dense_ops:
                chain_op, chain_device = dense_ops[-1], stage
            tail = agg_ops or dense_ops
            if tail:
                per_device_last[stage] = tail[-1:]
        # Each stage holds the weight gradients of its own groups only.
        return self._all_reduce_gradients(per_device_last)

    # ------------------------------------------------------------------ reporting
    def _extra_metrics(self) -> Dict[str, float]:
        extras = super()._extra_metrics()
        extras["pipeline_bubble_seconds"] = self._bubble_seconds
        return extras
