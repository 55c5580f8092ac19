"""PiPAD reproduction: pipelined and parallel dynamic GNN training.

This package reproduces the system described in "PiPAD: Pipelined and
Parallel Dynamic GNN Training on GPUs" (PPoPP 2023) on a pure-Python
substrate: real numerics run on NumPy/SciPy while GPU-side behaviour
(memory transactions, warp occupancy, PCIe transfers, stream overlap) is
captured by an analytic simulated device so the paper's performance
experiments can be regenerated without CUDA hardware.

Sub-packages
------------
- :mod:`repro.graph` — dynamic-graph substrate (formats, snapshots, frames,
  overlap extraction, dataset analogues).
- :mod:`repro.tensor` — NumPy autograd engine and NN building blocks.
- :mod:`repro.gpu` — simulated GPU device, memory/warp cost models, PCIe,
  streams and timeline.
- :mod:`repro.kernels` — aggregation/update kernels (PyG COO, GE-SpMM CSR,
  PiPAD sliced parallel) with numerics + hardware cost.
- :mod:`repro.nn` — the three DGNN models (MPNN-LSTM, EvolveGCN, T-GCN).
- :mod:`repro.core` — the PiPAD runtime (slicer, overlap-aware transfer,
  parallel GNN, pipeline, inter-frame reuse, dynamic tuner, trainer).
- :mod:`repro.baselines` — PyGT and its PyGT-A / PyGT-R / PyGT-G variants.
- :mod:`repro.serving` — streaming inference: incremental snapshot store,
  forward-only sessions, micro-batching and the pipelined serving scheduler.
- :mod:`repro.distributed` — multi-GPU sharding: graph partitioner, device
  group with ring collectives, data-parallel trainer and sharded serving.
- :mod:`repro.experiments` — one module per paper table/figure, plus ``CLAIMS``.
- :mod:`repro.telemetry` — observability: span tracing, Chrome-trace export,
  the training hooks and the metrics and spans projected from run records.
- :mod:`repro.api` — the unified entry layer: declarative ``RunSpec``,
  the ``Engine`` façade and the ``python -m repro`` CLI.

Commonly used names (``load_dataset``, ``PiPADTrainer``, ``SimulatedGPU``,
...) are re-exported lazily at the top level.
"""

from __future__ import annotations

import importlib
from typing import Any

from repro.version import __version__

# name -> submodule providing it; resolved lazily on first attribute access
_LAZY_EXPORTS = {
    # unified entry layer (the preferred construction path)
    "DeviceSpec": "repro.api",
    "Engine": "repro.api",
    "RunReport": "repro.api",
    "RunSpec": "repro.api",
    "ServingSpec": "repro.api",
    "TelemetrySpec": "repro.api",
    "TraceSpec": "repro.api",
    "DEVICE_REGISTRY": "repro.api",
    "SERVING_REGISTRY": "repro.api",
    "build_trainer": "repro.api",
    "build_serving": "repro.api",
    # graph substrate
    "COOMatrix": "repro.graph",
    "CSRMatrix": "repro.graph",
    "SlicedCSRMatrix": "repro.graph",
    "GraphSnapshot": "repro.graph",
    "DynamicGraph": "repro.graph",
    "FrameIterator": "repro.graph",
    "SnapshotOverlap": "repro.graph",
    "load_dataset": "repro.graph",
    # simulated GPU
    "GPUSpec": "repro.gpu",
    "PCIeSpec": "repro.gpu",
    "SimulatedGPU": "repro.gpu",
    # PiPAD runtime
    "PiPADConfig": "repro.core",
    "PiPADTrainer": "repro.core",
    # distributed execution
    "GroupConfig": "repro.distributed",
    "DistributedTrainer": "repro.distributed",
    "PipelineTrainer": "repro.distributed",
    "DeviceGroup": "repro.distributed",
    "FramePartitioner": "repro.distributed",
    "FrameStage": "repro.distributed",
    "GraphPartitioner": "repro.distributed",
    "Interconnect": "repro.distributed",
    "LinkSpec": "repro.distributed",
    "NVLINK": "repro.distributed",
    "PCIE_PEER": "repro.distributed",
    "SCHEDULE_MODES": "repro.distributed",
    "SnapshotShard": "repro.distributed",
    "ShardedServingEngine": "repro.distributed",
    "build_sharded_serving_engine": "repro.distributed",
    "FleetConfig": "repro.distributed",
    "FleetServingEngine": "repro.distributed",
    "ScaleEvent": "repro.distributed",
    "build_fleet_serving_engine": "repro.distributed",
    # baselines
    "PyGTTrainer": "repro.baselines",
    "PyGTAsyncTrainer": "repro.baselines",
    "PyGTReuseTrainer": "repro.baselines",
    "PyGTGeSpMMTrainer": "repro.baselines",
    "TrainerConfig": "repro.baselines",
    "TrainingResult": "repro.baselines",
    "EpochMetrics": "repro.baselines",
    "METHOD_ORDER": "repro.baselines",
    # models
    "MODEL_ORDER": "repro.nn",
    "MODEL_REGISTRY": "repro.nn",
    "build_model": "repro.nn",
    # serving
    "BatchRecord": "repro.serving",
    "BatchResult": "repro.serving",
    "DeltaRecord": "repro.serving",
    "DeltaReport": "repro.serving",
    "GraphDelta": "repro.serving",
    "IncrementalSnapshotStore": "repro.serving",
    "InferenceRequest": "repro.serving",
    "InferenceSession": "repro.serving",
    "MicroBatch": "repro.serving",
    "MicroBatcher": "repro.serving",
    "RequestRecord": "repro.serving",
    "ServingConfig": "repro.serving",
    "ServingEvent": "repro.serving",
    "ServingMetrics": "repro.serving",
    "ServingPolicy": "repro.serving",
    "ServingReport": "repro.serving",
    "ServingScheduler": "repro.serving",
    "random_delta": "repro.serving",
    "synthesize_serving_trace": "repro.serving",
    # telemetry
    "EXPORTER_REGISTRY": "repro.telemetry",
    "SpanTracer": "repro.telemetry",
    "Telemetry": "repro.telemetry",
    "TelemetryCallback": "repro.telemetry",
    "build_chrome_trace": "repro.telemetry",
    "export_chrome_trace": "repro.telemetry",
    # experiments
    "ExperimentConfig": "repro.experiments",
    "run_experiment": "repro.experiments",
    "format_experiment": "repro.experiments",
    "list_experiments": "repro.experiments",
}

__all__ = ["__version__", *sorted(_LAZY_EXPORTS)]


def __getattr__(name: str) -> Any:
    if name in _LAZY_EXPORTS:
        module = importlib.import_module(_LAZY_EXPORTS[name])
        return getattr(module, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
