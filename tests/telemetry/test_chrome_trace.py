"""Chrome-trace exporter: structure, clock domains and byte-determinism.

The golden test runs the pipeline-4gpu preset twice end-to-end and demands
byte-identical trace files — the exporter's ordering, float formatting and
the simulated substrate itself must all be deterministic for the trace to
be a trustworthy artifact.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Engine, RunSpec
from repro.api.cli import read_preset
from repro.telemetry import SpanTracer, TraceTrack, build_chrome_trace, export_chrome_trace


def _pipeline_spec() -> RunSpec:
    # The CLI preset, shrunk: identical topology (4 pipeline stages), fewer
    # snapshots/epochs so two full runs stay fast.
    data = read_preset("pipeline-4gpu")
    data.update(num_snapshots=8, epochs=2)
    return RunSpec.from_dict(data)


def _run_and_export(tmp_path, name: str) -> tuple[bytes, dict]:
    engine = Engine.from_spec(_pipeline_spec())
    engine.run()
    path = tmp_path / name
    doc = engine.export_trace(path)
    return path.read_bytes(), doc


class TestGoldenDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        first, doc = _run_and_export(tmp_path, "a.json")
        second, _ = _run_and_export(tmp_path, "b.json")
        assert first == second
        # and the file is strict JSON that parses back to the returned doc
        assert json.loads(first.decode()) == doc

    def test_structure_of_pipeline_trace(self, tmp_path):
        _, doc = _run_and_export(tmp_path, "c.json")
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"

        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]

        # One process track per device plus the run-lifecycle track.
        process_names = {
            e["args"]["name"] for e in meta if e["name"] == "process_name"
        }
        assert {"run", "gpu0", "gpu1", "gpu2", "gpu3"} <= process_names

        # Device events carry their timeline kind as the category.
        cats = {e.get("cat") for e in spans}
        assert "kernel" in cats
        assert "collective" in cats
        # The 1F1B schedule stalls late stages: bubbles are first-class spans.
        assert "bubble" in cats
        # Lifecycle spans (train phase, epochs, frames) ride the run track.
        assert "phase" in cats and "epoch" in cats and "frame" in cats

        # Timestamps are microseconds and non-negative; durations finite.
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in spans)

        # Bubble spans land on a device pid, not the run track.
        bubble_pids = {e["pid"] for e in spans if e.get("cat") == "bubble"}
        assert bubble_pids and 0 not in bubble_pids

    def test_prefetch_spans_ride_device_prefetch_threads(self, tmp_path):
        """Datapipe stage spans (the preset prefetches at depth 2) get their
        own thread on the owning device's track, never the run track."""
        _, doc = _run_and_export(tmp_path, "e.json")
        events = doc["traceEvents"]
        prefetch = [e for e in events if e.get("cat") == "prefetch"]
        assert prefetch
        stages = {e["name"].split("_")[1] for e in prefetch}
        assert stages == {"slice", "gather", "pin", "h2d"}
        pids = {e["pid"] for e in prefetch}
        assert 0 not in pids
        assert len(pids) > 1  # every pipeline stage device prefetches
        # All prefetch spans share the reserved per-device thread name.
        thread_names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {
            thread_names[(e["pid"], e["tid"])] for e in prefetch
        } == {"prefetch"}


class TestBuildChromeTrace:
    def test_open_spans_are_excluded(self):
        tracer = SpanTracer()
        tracer.begin("left_open", at=0.0)
        doc = build_chrome_trace([], spans=tracer.spans)
        assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []

    def test_serve_domain_is_offset_past_train_extent(self):
        tracer = SpanTracer()
        tracer.record("train_phase", 0.0, 2.0, category="phase", domain="train")
        tracer.record("serve_phase", 0.0, 1.0, category="phase", domain="serve")
        doc = build_chrome_trace([], spans=tracer.spans)
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert by_name["train_phase"]["ts"] == 0
        # serve clock starts where the train extent ends: 2 s -> 2e6 us
        assert by_name["serve_phase"]["ts"] == pytest.approx(2e6)

    def test_metadata_is_embedded_sorted(self):
        doc = build_chrome_trace([], metadata={"b": 1, "a": 2})
        assert list(doc["metadata"]) == ["a", "b"]

    def test_nonfinite_attrs_serialize(self):
        tracer = SpanTracer()
        tracer.record("s", 0.0, 1.0, loss=float("nan"))
        doc = build_chrome_trace([], spans=tracer.spans)
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert isinstance(event["args"]["loss"], str)  # repr, not bare NaN
        json.dumps(doc, allow_nan=False)  # strict JSON round-trips

    def test_export_writes_the_compact_sorted_dump_of_the_document(self, tmp_path):
        from repro.gpu.device import SimulatedGPU

        gpu = SimulatedGPU()
        copy = gpu.transfer_h2d(1024, label="x")
        gpu.host_op(1e-6, label="prep", stream="cpu", depends_on=[copy])
        tracer = SpanTracer()
        tracer.record("phase", 0.0, 1.0, category="phase", loss=float("nan"), note="é")
        path = tmp_path / "trace.json"
        doc = export_chrome_trace(
            str(path), [TraceTrack("gpu0", gpu.timeline)], tracer.spans, metadata={"b": 1, "a": 2}
        )
        expected = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    def test_track_threads_follow_resource_order(self):
        from repro.gpu.device import SimulatedGPU

        gpu = SimulatedGPU()
        gpu.transfer_h2d(1024, label="x")
        doc = build_chrome_trace([TraceTrack("gpu0", gpu.timeline)])
        thread_meta = [
            e for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 1
        ]
        names = {e["args"]["name"] for e in thread_meta}
        assert "pcie_h2d" in names
