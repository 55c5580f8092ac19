"""The metrics snapshot and the serving spans as projections of run records.

``Telemetry.collect`` builds the flat metrics dict from the training result
and the serving report after the run, and ``project_serving`` turns the
serving report's request, batch and delta records into serve-clock spans.
These tests pin the summary helper (NaN on an empty run), what each record
contributes, and that persisting a report keeps its delta records.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import Engine, RunReport
from repro.serving.metrics import (
    BatchRecord,
    DeltaRecord,
    RequestRecord,
    ServingMetrics,
    ServingReport,
)
from repro.telemetry.runtime import project_serving, summarize

SHARDED = {
    "dataset": "covid19_england",
    "model": "tgcn",
    "method": "pipad",
    "num_snapshots": 12,
    "frame_size": 8,
    "epochs": 2,
    "serving": {
        "kind": "sharded",
        "num_shards": 2,
        "window": 8,
        "max_batch_requests": 4,
        "max_delay_ms": 1.0,
        "trace": {"num_events": 30, "seed": 3},
    },
}


class TestSummarize:
    def test_empty_summary_is_nan_not_zero(self):
        # An absent measurement must not read as a perfect one.
        out = summarize([])
        assert out["count"] == 0.0 and out["sum"] == 0.0
        assert all(math.isnan(out[key]) for key in ("mean", "p50", "p99"))

    def test_percentiles_interpolate(self):
        out = summarize([1.0, 2.0, 3.0, 4.0])
        assert out["count"] == 4.0
        assert out["sum"] == 10.0
        assert out["mean"] == pytest.approx(2.5)
        assert out["p50"] == pytest.approx(2.5)
        assert out["p99"] == pytest.approx(3.97)

    def test_single_value(self):
        assert summarize([2.0]) == {
            "count": 1.0, "sum": 2.0, "mean": 2.0, "p50": 2.0, "p99": 2.0,
        }

    def test_sum_adds_in_record_order(self):
        values = [0.1, 0.2, 0.3, 1e16, -1e16]
        total = 0.0
        for value in values:
            total += value
        assert summarize(values)["sum"].hex() == total.hex()

    def test_integers_summarize_as_floats(self):
        out = summarize([3, 5])
        assert all(isinstance(value, float) for value in out.values())
        assert out["mean"] == 4.0


def _report(requests=(), batches=(), deltas=()):
    metrics = ServingMetrics()
    metrics.requests = list(requests)
    metrics.batches = list(batches)
    metrics.deltas = list(deltas)
    return ServingReport(
        engine="e", model="m", dataset="d", simulated_seconds=1.0,
        wall_seconds=0.0, metrics=metrics,
    )


class TestProjectServing:
    def test_no_report_no_spans(self):
        assert project_serving(None) == []

    def test_one_span_per_record(self):
        report = _report(
            [RequestRecord(7, 3, 0.5, 1.5, 2)],
            [BatchRecord(3, 1, 2, 0.75, 1.5, 64.0, 1, 0)],
            [DeltaRecord(11, 4, 0.25)],
        )
        spans = {s.name: s for s in project_serving(report)}
        assert set(spans) == {"request_7", "batch_3", "delta_v11"}
        assert all(s.domain == "serve" and s.closed for s in spans.values())
        request = spans["request_7"]
        assert (request.category, request.start, request.end) == ("request", 0.5, 1.5)
        assert request.attrs == {"batch_id": 3, "num_nodes": 2}
        batch = spans["batch_3"]
        assert (batch.start, batch.end, batch.attrs) == (0.75, 1.5, {"size": 1, "s_per": 2})
        delta = spans["delta_v11"]
        assert (delta.start, delta.end, delta.attrs) == (0.25, 0.25, {"num_touched": 4})

    def test_completion_before_arrival_clamps_to_zero_width(self):
        (span,) = project_serving(_report([RequestRecord(0, 0, 2.0, 1.0, 1)]))
        assert span.start == span.end == 2.0


class TestDeltaRecords:
    def test_counts_derive_from_the_records(self):
        metrics = ServingMetrics()
        assert metrics.deltas_ingested == 0 and metrics.rows_touched == 0
        assert math.isnan(metrics.rows_per_delta())
        metrics.record_delta(DeltaRecord(1, 5, 0.0))
        metrics.record_delta(DeltaRecord(2, 2, 0.5))
        assert (metrics.deltas_ingested, metrics.rows_touched) == (2, 7)
        assert metrics.rows_per_delta() == 3.5

    def test_round_trip_keeps_delta_records(self):
        metrics = ServingMetrics()
        metrics.record_delta(DeltaRecord(3, 9, 0.125))
        assert ServingMetrics.from_dict(metrics.to_dict()).deltas == metrics.deltas


@pytest.fixture(scope="module")
def sharded_engine():
    engine = Engine.from_spec(SHARDED)
    engine.serve()
    return engine


class TestCollect:
    def test_training_metrics_come_from_epoch_records(self, sharded_engine):
        report = sharded_engine.report()
        metrics = report.metrics
        seconds = [m.simulated_seconds for m in report.training.epoch_metrics]
        assert metrics["train.epochs"] == len(seconds) == 2
        assert metrics["train.frames"] == 2 * sharded_engine.trainer.frames.num_frames
        assert metrics["train.epoch_seconds.sum"] == sum(seconds)
        assert metrics["train.epoch_seconds.p99"] == float(np.percentile(seconds, 99.0))

    def test_serving_metrics_come_from_the_merged_report(self, sharded_engine):
        report = sharded_engine.report()
        metrics, served = report.metrics, report.serving.metrics
        assert metrics["serving.requests"] == served.num_requests > 0
        assert metrics["serving.batches"] == len(served.batches) > 1
        latencies = [r.latency * 1e3 for r in served.requests]
        assert metrics["serving.latency_ms.sum"] == sum(latencies)
        assert metrics["serving.latency_ms.p99"] == float(np.percentile(latencies, 99.0))
        assert metrics["serving.batch_size.sum"] == sum(b.size for b in served.batches)
        assert metrics["serving.cache_hits"] == sum(b.cache_hits for b in served.batches)
        assert metrics["serving.cache_misses"] == sum(b.cache_misses for b in served.batches)
        assert metrics["serving.deltas"] == served.deltas_ingested > 0
        assert metrics["serving.rows_touched"] == served.rows_touched

    def test_snapshot_is_flat_sorted_floats(self, sharded_engine):
        metrics = sharded_engine.report().metrics
        assert list(metrics) == sorted(metrics)
        assert all(isinstance(value, float) for value in metrics.values())

    def test_saved_report_keeps_metrics_and_deltas(self, sharded_engine, tmp_path):
        report = sharded_engine.report()
        loaded = RunReport.load(report.save(tmp_path / "report.json"))
        assert loaded.serving.metrics.deltas == report.serving.metrics.deltas
        assert {k: float(v).hex() for k, v in loaded.metrics.items()} == {
            k: float(v).hex() for k, v in report.metrics.items()
        }

    def test_empty_serving_run_summarizes_to_nan(self, sharded_engine):
        engine = Engine.from_spec(SHARDED, model=sharded_engine.model)
        engine.serve([])
        metrics = engine.report().metrics
        assert "train.epochs" not in metrics
        assert metrics["serving.requests"] == metrics["serving.batches"] == 0.0
        assert metrics["serving.deltas"] == 0.0
        for name in ("serving.latency_ms", "serving.batch_size"):
            assert metrics[f"{name}.count"] == 0.0
            assert all(math.isnan(metrics[f"{name}.{key}"]) for key in ("mean", "p50", "p99"))
