"""Streaming DGNN inference serving (the online counterpart of the trainer).

The serving engine turns the repo's training-side mechanisms into a
low-latency online system:

- :mod:`repro.serving.deltas` — graph deltas and reproducible serving traces;
- :mod:`repro.serving.store` — :class:`IncrementalSnapshotStore`, which
  applies deltas to the head snapshot and maintains the window's
  overlap/exclusive decomposition incrementally;
- :mod:`repro.serving.session` — :class:`InferenceSession`, forward-only
  model execution with reuse-cache sourcing and delta-row invalidation;
- :mod:`repro.serving.batcher` — request coalescing into micro-batches;
- :mod:`repro.serving.scheduler` — :class:`ServingScheduler`, the pipelined
  batch executor with a tuner-backed partitioning policy;
- :mod:`repro.serving.metrics` — p50/p99 latency, throughput and cache-hit
  reporting compatible with :mod:`repro.baselines.results`.

See the README's "Streaming inference serving" section for how this maps
onto the paper's Fig. 7 reuse path.
"""

from repro.serving.batcher import InferenceRequest, MicroBatch, MicroBatcher
from repro.serving.deltas import (
    GraphDelta,
    ServingEvent,
    random_delta,
    synthesize_serving_trace,
)
from repro.serving.metrics import (
    BatchRecord,
    RequestRecord,
    ServingMetrics,
    ServingReport,
)
from repro.serving.scheduler import (
    BatchResult,
    ServingConfig,
    ServingPolicy,
    ServingScheduler,
)
from repro.serving.session import InferenceSession
from repro.serving.store import DeltaReport, IncrementalSnapshotStore

__all__ = [
    "BatchRecord",
    "BatchResult",
    "DeltaReport",
    "GraphDelta",
    "IncrementalSnapshotStore",
    "InferenceRequest",
    "InferenceSession",
    "MicroBatch",
    "MicroBatcher",
    "RequestRecord",
    "ServingConfig",
    "ServingEvent",
    "ServingMetrics",
    "ServingPolicy",
    "ServingReport",
    "ServingScheduler",
    "random_delta",
    "synthesize_serving_trace",
]
