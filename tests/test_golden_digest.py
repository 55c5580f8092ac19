"""Cross-commit golden digests of the simulated timelines.

:mod:`tests.test_determinism` compares two runs of the same code, so it
cannot see simulated time drift from one commit to the next.  These tests
pin a SHA-256 over every op of four small runs.  A change that is meant to
be host-side only (faster bookkeeping, fewer allocations) must leave them
untouched; a change that moves simulated time on purpose updates the
constants and says why.

Each op contributes ``(timeline, label, kind, resource, stream, start, end,
deps)`` with times as ``float.hex`` and deps as ``(timeline, op_id)`` —
``uid`` is process-global and depends on which tests ran first.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.base import collect_artifacts
from repro.api import Engine

SINGLE_GPU_PIPAD = {
    "dataset": "covid19_england",
    "model": "tgcn",
    "method": "pipad",
    "num_snapshots": 14,
    "frame_size": 8,
    "epochs": 2,
}

PIPELINE_4GPU = {
    "dataset": "flickr",
    "model": "evolvegcn",
    "method": "pipad",
    "num_snapshots": 12,
    "frame_size": 8,
    "epochs": 2,
    "cost_scale": 5000.0,
    "pipad": {"fixed_s_per": 2},
    "device": {
        "kind": "pipeline",
        "num_devices": 4,
        "interconnect": "nvlink",
        "schedule": "round_robin",
    },
    "data": {"pipeline": "staged", "prefetch_depth": 2, "pin_memory": True},
}

GROUP_4GPU_CACHED = {
    "dataset": "flickr",
    "model": "tgcn",
    "method": "pipad",
    "num_snapshots": 12,
    "frame_size": 8,
    "epochs": 2,
    "cost_scale": 5000.0,
    "device": {"kind": "group", "num_devices": 4, "interconnect": "nvlink"},
    "memory": {
        "feature_cache": True,
        "gpu_budget_mb": 64,
        "pinned_budget_mb": 64,
        "block_rows": 64,
    },
}

FLEET_SERVE = {
    "dataset": "youtube",
    "model": "tgcn",
    "method": "pipad",
    "num_snapshots": 12,
    "frame_size": 8,
    "epochs": 1,
    "lr": 0.005,
    "serving": {
        "kind": "fleet",
        "num_shards": 4,
        "min_replicas": 2,
        "admission_limit": 16,
        "slo_p99_ms": 2.0,
        "window": 8,
        "max_batch_requests": 8,
        "max_delay_ms": 1.0,
        "trace": {"num_events": 40, "mean_interarrival_ms": 0.2, "seed": 7},
    },
}

#: name -> (spec, op count, digest)
GOLDEN = {
    "pipad-1gpu": (
        SINGLE_GPU_PIPAD,
        4439,
        "30acfdb6afae05bf08f15c861bdd3ba45a3d1eb3ae5ae76fdf3d56749603019f",
    ),
    "pipeline-4gpu": (
        PIPELINE_4GPU,
        13464,
        "86e213a8d3a636978e43a62af6f54d677b3f868a068b3458f842d8ab88f674c8",
    ),
    "group-4gpu-cached": (
        GROUP_4GPU_CACHED,
        8737,
        "232802a22a67dd0013cb7e97ffa1fc0407c65f24af80289ae51b8f412c693156",
    ),
    "fleet-serve": (
        FLEET_SERVE,
        4255,
        "4613bcb438be9d99ac36ba83b2fd2677f516a4786f8759cbaa2aeaed45a8648c",
    ),
}


def timeline_digest(engine: Engine):
    """``(op count, SHA-256 hex)`` over every timeline the run scheduled."""
    artifacts = collect_artifacts(
        trainer=engine._trainer, serving_engine=engine._serving_engine
    )
    timelines = [timeline.ops for _, _, timeline in artifacts.timelines]
    where = {
        op.uid: (index, op.op_id)
        for index, ops in enumerate(timelines)
        for op in ops
    }
    digest = hashlib.sha256()
    for index, ops in enumerate(timelines):
        for op in ops:
            record = (
                index,
                op.label,
                op.kind,
                op.resource,
                op.stream,
                float(op.start).hex(),
                float(op.end).hex(),
                tuple(where[uid] for uid in op.deps),
            )
            digest.update(repr(record).encode())
            digest.update(b"\n")
    return sum(len(ops) for ops in timelines), digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulated_timelines_match_the_committed_digest(name):
    spec, num_ops, expected = GOLDEN[name]
    engine = Engine.from_spec(spec)
    if "serving" in spec:
        engine.serve()
    else:
        engine.train()
    assert timeline_digest(engine) == (num_ops, expected)
