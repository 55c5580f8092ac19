"""Multi-GPU sharded execution: partitioner → device group → collectives → trainer.

This package is the façade of the distributed subsystem; the implementation
lives next to its single-device counterparts so each layer stays cohesive:

- :class:`~repro.graph.partition.GraphPartitioner` (``repro.graph``) shards
  the node set across devices with halo-node bookkeeping and per-shard
  overlap decompositions;
- :class:`~repro.gpu.interconnect.Interconnect` and
  :class:`~repro.gpu.device_group.DeviceGroup` (``repro.gpu``) model the
  NVLink/PCIe peer links and coordinate ``K`` simulated-GPU timelines with
  cross-device dependency edges and ring collectives;
- :class:`~repro.core.distributed_trainer.DistributedTrainer`
  (``repro.core``) runs data-parallel PiPAD training over the shards with
  halo exchanges, state all-gathers and per-frame gradient all-reduce;
- :class:`~repro.core.pipeline_trainer.PipelineTrainer` (``repro.core``) is
  the frame-pipeline alternative: a
  :class:`~repro.graph.partition.FramePartitioner` shards the *snapshot
  groups* instead of the node set, and the recurrent state hops between
  stages over point-to-point ``DeviceGroup.send`` transfers;
- :class:`ShardedServingEngine` (here) is the sharded entry point for the
  streaming serving scheduler: requests fan out across per-device serving
  replicas while graph deltas broadcast to every shard;
- :class:`FleetServingEngine` (here) is its fleet-scale successor: one
  node-sharded store shared by the replicas, ownership routing with
  queue-depth admission control, and an elastic replica pool that scales on
  p99/SLO pressure.
"""

from repro.core.distributed_trainer import DistributedTrainer
from repro.core.group_trainer import GroupConfig
from repro.core.pipeline_trainer import PipelineTrainer
from repro.distributed.fleet import (
    FleetConfig,
    FleetServingEngine,
    ScaleEvent,
    build_fleet_serving_engine,
)
from repro.distributed.serving import ShardedServingEngine, build_sharded_serving_engine
from repro.gpu.device_group import COMM_STREAM, RESOURCE_PEER_LINK, DeviceGroup
from repro.gpu.interconnect import NVLINK, PCIE_PEER, Interconnect, LinkSpec
from repro.graph.partition import (
    PARTITION_MODES,
    SCHEDULE_MODES,
    FramePartitioner,
    FrameStage,
    GraphPartitioner,
    SnapshotShard,
)

__all__ = [
    "COMM_STREAM",
    "DeviceGroup",
    "DistributedTrainer",
    "FleetConfig",
    "FleetServingEngine",
    "FramePartitioner",
    "FrameStage",
    "GraphPartitioner",
    "GroupConfig",
    "Interconnect",
    "LinkSpec",
    "NVLINK",
    "PARTITION_MODES",
    "PCIE_PEER",
    "PipelineTrainer",
    "RESOURCE_PEER_LINK",
    "SCHEDULE_MODES",
    "ScaleEvent",
    "ShardedServingEngine",
    "SnapshotShard",
    "build_fleet_serving_engine",
    "build_sharded_serving_engine",
]
