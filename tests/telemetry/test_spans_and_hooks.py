"""Unit tests for the span tracer, the training hooks and the serving spans
projected from the serving report's records."""

from __future__ import annotations

import pytest

from repro.api import Engine
from repro.api.cli import load_spec
from repro.telemetry import (
    CallbackList,
    SpanTracer,
    Telemetry,
    TelemetryCallback,
    TracingCallback,
)
from repro.telemetry.hooks import HOOK_NAMES, NULL_CALLBACK


class TestSpanTracer:
    def test_nested_spans_track_depth(self):
        t = SpanTracer()
        t.begin("train", at=0.0)
        t.begin("epoch_0", at=0.0, category="epoch")
        t.end("epoch_0", at=1.0)
        t.end("train", at=2.0)
        spans = {s.name: s for s in t.spans}
        assert spans["train"].depth == 0
        assert spans["epoch_0"].depth == 1
        assert spans["train"].duration == 2.0

    def test_end_unknown_span_raises(self):
        t = SpanTracer()
        with pytest.raises(ValueError):
            t.end("nope", at=1.0)

    def test_end_closes_deeper_open_spans(self):
        t = SpanTracer()
        t.begin("outer", at=0.0)
        t.begin("inner", at=0.5)
        t.end("outer", at=2.0)  # inner left open: closed at the same instant
        spans = {s.name: s for s in t.spans}
        assert spans["inner"].closed and spans["inner"].end == 2.0

    def test_record_leaf_span_clamps_end(self):
        t = SpanTracer()
        t.record("frame_0", 1.0, 0.5, category="frame")
        (span,) = t.spans
        assert span.end == 1.0  # end < start clamps to zero width

    def test_extent_per_domain(self):
        t = SpanTracer()
        t.record("a", 0.0, 2.0, domain="train")
        t.record("b", 0.0, 5.0, domain="serve")
        assert t.extent() == 5.0
        assert SpanTracer().extent() == 0.0

    def test_close_all_closes_every_open_span(self):
        t = SpanTracer()
        t.begin("a", at=0.0)
        t.begin("b", at=1.0)
        t.record("c", 0.0, 3.0)
        t.close_all()
        assert all(s.closed for s in t.spans)
        assert {s.name: s.end for s in t.spans} == {"a": 3.0, "b": 3.0, "c": 3.0}


class TestCallbackList:
    def test_fans_out_to_every_callback(self):
        calls = []

        class Probe(TelemetryCallback):
            def __init__(self, tag):
                self.tag = tag

            def on_epoch_start(self, epoch, at):
                calls.append((self.tag, epoch))

        fan = CallbackList().add(Probe("a")).add(Probe("b"))
        fan.on_epoch_start(3, 0.0)
        assert calls == [("a", 3), ("b", 3)]

    def test_covers_every_hook_name(self):
        fan = CallbackList()
        for name in HOOK_NAMES:
            assert callable(getattr(fan, name))
            assert callable(getattr(NULL_CALLBACK, name))

    def test_training_hooks_only(self):
        assert HOOK_NAMES == (
            "on_phase_start",
            "on_phase_end",
            "on_epoch_start",
            "on_epoch_end",
            "on_frame",
        )

    def test_phase_domains(self):
        tracer = SpanTracer()
        cb = TracingCallback(tracer)
        for phase in ("prepare", "train", "serve"):
            cb.on_phase_start(phase, 0.0)
            cb.on_phase_end(phase, 1.0)
        assert {s.name: s.domain for s in tracer.spans} == {
            "prepare": "train",
            "train": "train",
            "serve": "serve",
        }

    def test_tracing_callback_builds_spans(self):
        tracer = SpanTracer()
        cb = TracingCallback(tracer)
        cb.on_phase_start("train", 0.0)
        cb.on_epoch_start(0, 0.0)
        cb.on_frame(0, 0, 0.0, 0.5, loss=1.0)
        cb.on_epoch_end(0, None, 0.0, 1.0)
        cb.on_phase_end("train", 1.0)
        names = [s.name for s in tracer.spans]
        assert "train" in names and "epoch_0" in names and "frame_0" in names


class TestTelemetryRuntime:
    def test_enabled_runtime_feeds_the_tracer(self):
        sinks = [type(sink) for sink in Telemetry().hooks]
        assert sinks == [TracingCallback]
        assert len(Telemetry(enabled=False).hooks) == 0

    def test_disabled_telemetry_collects_nothing(self):
        assert Telemetry(enabled=False).collect(None) == {}

    def test_from_spec_none_is_disabled(self):
        assert Telemetry.from_spec(None).enabled is False


class TestServingDeltaSpans:
    """A delta applied once to the shared store is one delta record and one
    ``delta_v<n>`` span, and its rows count once in the summary, however many
    replicas absorb it."""

    SERVING = {
        "window": 8,
        "max_batch_requests": 8,
        "max_delay_ms": 1.0,
        "trace": {"num_events": 40, "mean_interarrival_ms": 0.2, "seed": 7},
    }

    @pytest.mark.parametrize(
        "topology",
        [
            {"kind": "local"},
            {"kind": "sharded", "num_shards": 3},
            {"kind": "fleet", "num_shards": 4, "min_replicas": 2, "admission_limit": 16},
        ],
        ids=lambda topology: topology["kind"],
    )
    def test_one_delta_event_per_ingested_delta(self, topology, tmp_path):
        engine = Engine.from_spec(
            {
                "dataset": "youtube",
                "model": "tgcn",
                "method": "pipad",
                "num_snapshots": 12,
                "frame_size": 8,
                "epochs": 1,
                "serving": {**self.SERVING, **topology},
            }
        )
        engine.serve()
        metrics = engine.report().metrics
        deltas = metrics["serving.summary.deltas"]
        assert deltas > 0
        assert metrics["serving.deltas"] == deltas
        assert metrics["serving.summary.rows_touched"] == metrics["serving.rows_touched"]
        doc = engine.export_trace(tmp_path / "serve.json")
        spans = [e["name"] for e in doc["traceEvents"] if e.get("cat") == "delta"]
        assert len(spans) == len(set(spans)) == deltas
        assert all(name.startswith("delta_v") for name in spans)


class TestServingRequestSpans:
    """Replicas of one engine draw request ids from one counter, so every
    request span of a sharded or fleet trace has its own name, and the names
    are the report's request ids."""

    @pytest.mark.parametrize("preset", ["sharded-serving", "fleet-serving"])
    def test_request_span_names_are_the_report_ids(self, preset, served):
        report, events = served(preset)
        names = [e["name"] for e in events if e.get("cat") == "request"]
        ids = [record.request_id for record in report.metrics.requests]
        assert len(ids) == len(set(ids)) > 0
        assert len(names) == len(set(names))
        assert set(names) == {f"request_{request_id}" for request_id in ids}

    @pytest.mark.parametrize("preset", ["sharded-serving", "fleet-serving"])
    def test_request_span_batch_ids_are_the_records(self, preset, served):
        report, events = served(preset)
        spans = {
            e["name"]: e["args"]["batch_id"]
            for e in events
            if e.get("cat") == "request"
        }
        assert spans == {
            f"request_{record.request_id}": record.batch_id
            for record in report.metrics.requests
        }


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """``preset -> (serving report, trace events)`` of a 60-event serve run,
    each preset run once for the module."""
    runs = {}

    def run(preset):
        if preset not in runs:
            engine = Engine.from_spec(load_spec(preset, ["serving.trace.num_events=60"]))
            report = engine.serve()
            path = tmp_path_factory.mktemp("serve") / f"{preset}.json"
            runs[preset] = (report, engine.export_trace(path)["traceEvents"])
        return runs[preset]

    return run


class TestServingBatchSpans:
    """Replicas of one engine draw batch ids from one counter, so every batch
    span of a sharded or fleet trace has its own name, and the names are the
    report's batch ids."""

    @pytest.mark.parametrize("preset", ["sharded-serving", "fleet-serving"])
    def test_batch_span_names_are_the_report_ids(self, preset, served):
        report, events = served(preset)
        names = [e["name"] for e in events if e.get("cat") == "batch"]
        ids = [record.batch_id for record in report.metrics.batches]
        assert len(ids) == len(set(ids)) > 1
        assert len(names) == len(set(names)) == len(ids)
        assert set(names) == {f"batch_{batch_id}" for batch_id in ids}

    @pytest.mark.parametrize("preset", ["sharded-serving", "fleet-serving"])
    def test_merged_records_are_in_batch_id_order(self, preset, served):
        report, _ = served(preset)
        batch_ids = [record.batch_id for record in report.metrics.batches]
        assert batch_ids == sorted(batch_ids)
        request_batches = [record.batch_id for record in report.metrics.requests]
        assert request_batches == sorted(request_batches)
        assert set(request_batches) == set(batch_ids)


class TestFleetScaleSpans:
    """Fleet scale events are serve-clock spans projected from
    ``scale_events``, never spans of the training domain."""

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

    def test_scale_spans_sit_in_the_serve_domain(self, tmp_path):
        engine = Engine.from_spec(self.FLEET_SERVE)
        engine.serve()
        fleet = engine.serving_engine
        doc = engine.export_trace(tmp_path / "fleet.json")
        events = doc["traceEvents"]
        (serve,) = [e for e in events if e.get("cat") == "phase" and e["name"] == "serve"]
        prepare = [e for e in events if e.get("cat") == "phase" and e["name"] == "prepare"]
        scale = [e for e in events if e["name"].startswith("fleet_scale_")]
        assert [e["name"] for e in scale] == [
            f"fleet_scale_{event.direction}_to_{event.active_replicas}"
            for event in fleet.scale_events
        ] == ["fleet_scale_up_to_3", "fleet_scale_up_to_4"]
        for event, record in zip(scale, fleet.scale_events):
            assert event["cat"] == "scale" and event["dur"] == 0.0
            # The serve clock starts where the train domain ends.
            assert event["ts"] == serve["ts"] + record.at * 1e6
            assert all(event["ts"] >= p["ts"] + p["dur"] for p in prepare)
