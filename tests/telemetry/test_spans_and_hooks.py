"""Unit tests for the span tracer and the callback/hook layer."""

from __future__ import annotations

import pytest

from repro.api import Engine
from repro.telemetry import (
    CALLBACK_REGISTRY,
    CallbackList,
    MetricsRegistry,
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
    def test_unknown_callback_name_rejected(self):
        with pytest.raises(ValueError):
            Telemetry(callbacks=("nope",))

    def test_known_names_match_registry(self):
        Telemetry(callbacks=tuple(CALLBACK_REGISTRY))  # does not raise

    def test_disabled_telemetry_collects_nothing(self):
        tel = Telemetry(enabled=False)
        assert isinstance(tel.registry, MetricsRegistry)
        assert tel.collect(None) == {}

    def test_from_spec_none_is_disabled(self):
        assert Telemetry.from_spec(None).enabled is False


class TestServingDeltaHook:
    """A delta applied once to the shared store is one ``on_delta`` event,
    and its rows count once in the summary, however many replicas absorb it."""

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
