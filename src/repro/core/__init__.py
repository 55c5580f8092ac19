"""PiPAD runtime: data organization, parallel GNN, pipeline, reuse, tuning."""

from repro.core.config import PiPADConfig
from repro.core.slicer import GraphSlicer
from repro.core.data_prep import DataPreparer, PartitionData
from repro.core.datapipe import (
    DataPipe,
    DataPipeConfig,
    PipeItem,
    Prefetcher,
    STAGE_REGISTRY,
)
from repro.core.reuse import ReuseManager
from repro.core.parallel_gnn import PartitionKernels
from repro.core.tuner import (
    DynamicTuner,
    FrameProfile,
    OfflineAnalysis,
    TuningDecision,
    build_overlap_group,
)
from repro.core.trainer import PiPADTrainer
from repro.core.group_trainer import GroupConfig
from repro.core.distributed_trainer import DistributedTrainer
from repro.core.pipeline_trainer import PipelineTrainer

__all__ = [
    "PiPADConfig",
    "GraphSlicer",
    "DataPreparer",
    "PartitionData",
    "DataPipe",
    "DataPipeConfig",
    "PipeItem",
    "Prefetcher",
    "STAGE_REGISTRY",
    "ReuseManager",
    "PartitionKernels",
    "DynamicTuner",
    "FrameProfile",
    "OfflineAnalysis",
    "TuningDecision",
    "build_overlap_group",
    "PiPADTrainer",
    "GroupConfig",
    "DistributedTrainer",
    "PipelineTrainer",
]
