"""Dynamic-graph substrate: sparse formats, snapshots, frames, overlap, datasets."""

from repro.graph.coo import COOMatrix
from repro.graph.csr import CSRMatrix
from repro.graph.sliced_csr import SlicedCSRMatrix, DEFAULT_SLICE_CAPACITY
from repro.graph.snapshot import GraphSnapshot
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.frame import (
    DEFAULT_FRAME_SIZE,
    Frame,
    FrameIterator,
)
from repro.graph.overlap import (
    IncrementalOverlapTracker,
    SnapshotOverlap,
    adjacent_change_rates,
    change_rate,
    extract_overlap,
    pairwise_overlap_rate,
    refine_overlap,
)
from repro.graph.partition import (
    SCHEDULE_MODES,
    FramePartitioner,
    FrameStage,
    GraphPartitioner,
    SnapshotShard,
)
from repro.graph.smoothing import apply_edge_life
from repro.graph.generators import GeneratorConfig, generate_dynamic_graph, TOPOLOGIES
from repro.graph.datasets import (
    DATASET_ABBREVIATIONS,
    DATASET_ORDER,
    DatasetSpec,
    PaperStats,
    get_dataset_spec,
    load_dataset,
)
from repro.graph.stats import DegreeStats, format_sizes, summarize

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "SlicedCSRMatrix",
    "DEFAULT_SLICE_CAPACITY",
    "GraphSnapshot",
    "DynamicGraph",
    "DEFAULT_FRAME_SIZE",
    "Frame",
    "FrameIterator",
    "IncrementalOverlapTracker",
    "SnapshotOverlap",
    "adjacent_change_rates",
    "change_rate",
    "extract_overlap",
    "pairwise_overlap_rate",
    "refine_overlap",
    "SCHEDULE_MODES",
    "FramePartitioner",
    "FrameStage",
    "GraphPartitioner",
    "SnapshotShard",
    "apply_edge_life",
    "GeneratorConfig",
    "generate_dynamic_graph",
    "TOPOLOGIES",
    "DATASET_ABBREVIATIONS",
    "DATASET_ORDER",
    "DatasetSpec",
    "PaperStats",
    "get_dataset_spec",
    "load_dataset",
    "DegreeStats",
    "format_sizes",
    "summarize",
]
