"""Cross-commit golden digests of the simulated timelines.

:mod:`tests.test_determinism` compares two runs of the same code, so it
cannot see simulated time drift from one commit to the next.  These tests
pin a SHA-256 over every op of seven small runs.  A change that is meant to
be host-side only (faster bookkeeping, fewer allocations) must leave them
untouched; a change that moves simulated time on purpose updates the
constants and says why.  The two serving digests were re-baselined once
when sharded and fleet batch ids became engine-wide: op labels carry them
(``serve_b<id>``), and with every ``b<digits>`` label token replaced by
``b#`` the records hash equal before and after.

Each op contributes ``(timeline, label, kind, resource, stream, start, end,
deps)`` with times as ``float.hex`` and deps as ``(timeline, op_id)`` —
``uid`` is process-global and depends on which tests ran first.

A second digest pins the run report's metrics snapshot (every
``(name, float.hex(value))`` pair of ``engine.report().metrics``) for the
same seven runs, so telemetry that is derived after the run — prefetch,
cache, bubble and collective totals — cannot drift silently either.  The
reuse cache's ``train.extras.cpu_hits`` and ``train.extras.misses`` are
left out of it and pinned as plain numbers instead (``REUSE_COUNTERS``):
they halved when transfer planning stopped counting as cache lookups, and
with them left out the five PiPAD digests hash the same before and after.

A third digest pins the op-event stream the cost collector receives in one
steady training frame of a single-GPU and a pipelined run: the events
themselves, including ops that launch no kernel, in the order the engine
emits them.

A fourth digest pins the prediction rows every admitted request of the two
serving runs gets back (``float.hex`` per value, by global request id), so
a change to where the replicas compute them cannot move their bits.
"""

from __future__ import annotations

import hashlib

import numpy as np
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

SHARDED_SERVE = {
    "dataset": "covid19_england",
    "model": "tgcn",
    "method": "pipad",
    "num_snapshots": 16,
    "frame_size": 8,
    "epochs": 1,
    "lr": 0.005,
    "serving": {
        "kind": "sharded",
        "num_shards": 3,
        "window": 8,
        "max_batch_requests": 8,
        "max_delay_ms": 1.0,
        "trace": {"num_events": 60, "seed": 7},
    },
}

#: The canonical one-snapshot-at-a-time trainers: PyGT-R aggregates with COO
#: kernels, PyGT-G with GE-SpMM, both with first-layer reuse; both models
#: aggregate hidden features again at layer 1.
PYGT_REUSE = {
    "dataset": "covid19_england",
    "model": "mpnn_lstm",
    "method": "pygt-r",
    "num_snapshots": 14,
    "frame_size": 8,
    "epochs": 2,
}

PYGT_GESPMM = {**PYGT_REUSE, "model": "evolvegcn", "method": "pygt-g"}

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
        "a1c3e639f1ebadac91b684af1a9cc9641ac2f056b5842a8a921888d8bcf1350c",
    ),
    "sharded-serve": (
        SHARDED_SERVE,
        8832,
        "c9a74c43581b843c40292235d7838f7c0259c2d7dd66b36d9a70ed4b12a048ed",
    ),
    "pygt-r": (
        PYGT_REUSE,
        9926,
        "0671c6fee2026d524e136027bc39ae15452fe343015caa1900bef1a7d387416d",
    ),
    "pygt-g": (
        PYGT_GESPMM,
        11032,
        "3ff1fb184776275d9039b9d07cca36a3e9cccebc1c355d34c36c352ed3f0be5a",
    ),
}


def timeline_digest(engine: Engine, op_records):
    """``(op count, SHA-256 hex)`` over every timeline the run scheduled."""
    artifacts = collect_artifacts(
        trainer=engine._trainer, serving_engine=engine._serving_engine
    )
    records = op_records([timeline.ops for _, _, timeline in artifacts.timelines])
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
        digest.update(b"\n")
    return len(records), digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulated_timelines_match_the_committed_digest(name, op_records):
    spec, num_ops, expected = GOLDEN[name]
    engine = Engine.from_spec(spec)
    if "serving" in spec:
        engine.serve()
    else:
        engine.train()
    assert timeline_digest(engine, op_records) == (num_ops, expected)


#: name -> (metric count, SHA-256 of the metrics snapshot).  The two
#: serving digests count one ``serving.deltas`` per ingested delta (fleet
#: 14, sharded 24) and its rows in ``serving.rows_touched`` (1040, 1191),
#: not one per replica that absorbed it; ``serving.summary.rows_touched``
#: and ``rows_per_delta`` merge the replicas the same way.
GOLDEN_METRICS = {
    "pipad-1gpu": (
        45,
        "89cde79658d5f1f085a0c4416b6e1bd413e61823adfeffe5bfdfe90a33ff444c",
    ),
    "pipeline-4gpu": (
        60,
        "e775b8ef4fb5d65b7b9db2984988deb4e58300deff6dc1e93fb56d27ea02603d",
    ),
    "group-4gpu-cached": (
        89,
        "cfc40ef01593a04efde1b7070ba47dbd6f1af7e400deaac4b0b36e37d82df6ad",
    ),
    "fleet-serve": (
        111,
        "8b2a370d7e354e425270deb9dad1e470c6c77b9a5bfeb1ada4371773bda0fbf8",
    ),
    "sharded-serve": (
        93,
        "47777569fe2a45662c614d0f268316a7795d95ba1a06b7bec8dda2003c7d6293",
    ),
    "pygt-r": (
        26,
        "67541f8e011157ebd649cbed37fa29317cc0376410fc8e307bb4105e252a8435",
    ),
    "pygt-g": (
        26,
        "b5c39a8b65c79557ef9e9e851c3ff5d15019fcec41c766fc159400b1f5d27af3",
    ),
}


#: metrics the digest leaves out; ``REUSE_COUNTERS`` pins them
UNDIGESTED = ("train.extras.cpu_hits", "train.extras.misses")

#: name -> (cpu_hits, gpu_hits, misses) of the training run's reuse cache:
#: the first-layer lookups the model made, one per snapshot of every frame
#: and epoch, and nothing else
REUSE_COUNTERS = {
    "pipad-1gpu": (42, 56, 14),
    "pipeline-4gpu": (28, 40, 12),
    "group-4gpu-cached": (28, 40, 12),
    "fleet-serve": (28, 0, 12),
    "sharded-serve": (56, 0, 16),
}


def metrics_digest(metrics):
    """``(metric count, SHA-256 hex)`` over the sorted ``float.hex`` pairs,
    without the :data:`UNDIGESTED` metrics."""
    digest = hashlib.sha256()
    kept = {name: value for name, value in metrics.items() if name not in UNDIGESTED}
    for name, value in sorted(kept.items()):
        digest.update(repr((name, float(value).hex())).encode())
        digest.update(b"\n")
    return len(kept), digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_METRICS))
def test_metrics_snapshot_matches_the_committed_digest(name):
    spec = GOLDEN[name][0]
    engine = Engine.from_spec(spec)
    if "serving" in spec:
        engine.serve()
    else:
        engine.train()
    metrics = engine.report().metrics
    assert metrics_digest(metrics) == GOLDEN_METRICS[name]
    if name in REUSE_COUNTERS:
        # the reuse cache counts only the lookups the model makes
        counters = tuple(
            metrics[f"train.extras.{key}"] for key in ("cpu_hits", "gpu_hits", "misses")
        )
        assert counters == REUSE_COUNTERS[name]


#: name -> (admitted request count, SHA-256 of every admitted request's
#: prediction rows).  The timeline and metrics digests pin when and how much
#: work ran, not the prediction bits the replicas hand back.
GOLDEN_PREDICTIONS = {
    "fleet-serve": (
        26,
        "888f6a7f74a4b97facb47b0a957541eae556ce96da74639b3fd1258f7b39cbe8",
    ),
    "sharded-serve": (
        36,
        "cbb7cd813d67f75bde5be12dfd42785ff90a73e6f051b3cc4c09286f5b30a105",
    ),
}


def served_predictions(spec):
    """Global request id -> prediction rows of every admitted request."""
    engine = Engine.from_spec(spec)
    engine.train()
    serving = engine.serving_engine
    pump = serving.pump
    predictions = {}

    def recording_pump(*args, **kwargs):
        results = pump(*args, **kwargs)
        for result in results:
            predictions.update(result.predictions)
        return results

    serving.pump = recording_pump
    engine.serve()
    return predictions


@pytest.mark.parametrize("name", sorted(GOLDEN_PREDICTIONS))
def test_served_predictions_match_the_committed_digest(name):
    predictions = served_predictions(GOLDEN[name][0])
    digest = hashlib.sha256()
    for request_id in sorted(predictions):
        rows = np.asarray(predictions[request_id], dtype=np.float64)
        digest.update(
            repr((request_id, rows.shape, [float(v).hex() for v in rows.ravel()])).encode()
        )
        digest.update(b"\n")
    assert (len(predictions), digest.hexdigest()) == GOLDEN_PREDICTIONS[name]


#: The benchmark's train-single and train-pipeline workloads, cut to two
#: epochs: the first prepares, the second runs PiPAD's steady schedule.
TRAIN_SINGLE = {
    "dataset": "youtube",
    "model": "mpnn_lstm",
    "method": "pipad",
    "num_snapshots": 16,
    "frame_size": 8,
    "epochs": 2,
}

TRAIN_PIPELINE = {**PIPELINE_4GPU, "epochs": 2}

#: name -> (spec, event count, SHA-256 of the op-event stream)
GOLDEN_EVENTS = {
    "train-single": (
        TRAIN_SINGLE,
        724,
        "33b507790b52c7dcea83a4177a92111ed4264b790e23d33167c5dc993b5cb4eb",
    ),
    "train-pipeline": (
        TRAIN_PIPELINE,
        785,
        "4130e06d0b971c308ff2ac955862c7ea9e825f9376517ad7f36553b21c50face",
    ),
}


def steady_frame_events(spec, monkeypatch):
    """Every op event the cost collector sees in the last epoch's first frame.

    A record is ``(name, phase, input shapes, output shapes, scope, whether
    a kernel_cost is attached)``.  An op that launches no kernel (a
    ``reshape``) leaves no trace on a timeline, so the timeline digests
    cannot see it; this record does.
    """
    from repro.gpu.profiler import KernelCostCollector

    records = []
    recording = []
    observe = KernelCostCollector.__call__

    def spy(collector, event):
        if recording:
            records.append(
                (
                    event.name,
                    event.phase,
                    event.input_shapes,
                    event.output_shapes,
                    event.attrs.get("scope"),
                    event.attrs.get("kernel_cost") is not None,
                )
            )
        observe(collector, event)

    monkeypatch.setattr(KernelCostCollector, "__call__", spy)
    engine = Engine.from_spec(spec)
    trainer = engine.trainer
    train_frame = trainer._train_frame

    def record_first_steady_frame(frame, epoch):
        if epoch == spec["epochs"] - 1 and frame.index == 0:
            recording.append(True)
        try:
            return train_frame(frame, epoch)
        finally:
            recording.clear()

    trainer._train_frame = record_first_steady_frame
    engine.train()
    return records


@pytest.mark.parametrize("name", sorted(GOLDEN_EVENTS))
def test_op_event_stream_matches_the_committed_digest(name, monkeypatch):
    spec, num_events, expected = GOLDEN_EVENTS[name]
    records = steady_frame_events(spec, monkeypatch)
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
        digest.update(b"\n")
    assert (len(records), digest.hexdigest()) == (num_events, expected)
