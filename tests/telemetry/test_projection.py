"""Telemetry as a projection of the timelines.

Per-op facts — datapipe stages, feature-cache lookups, pipeline bubbles and
collectives — live on the timeline ops that carry them; the runtime turns
them into metrics and Chrome-trace spans after the run.  These tests pin
that projection: what each tagged op contributes, that the totals add in
submission order, that reports are idempotent, and that spans sit on the
device whose timeline holds the op.
"""

from __future__ import annotations


import pytest

from repro.api import Engine, RunSpec
from repro.api.cli import read_preset
from repro.core.datapipe import (
    DataPipe,
    DataPipeConfig,
    PipeItem,
    Prefetcher,
    apply_cache_plan,
)
from repro.gpu import SimulatedGPU
from repro.gpu.device_group import DeviceGroup
from repro.memory.cache import AccessPlan
from repro.telemetry import TraceTrack, build_chrome_trace
from repro.telemetry.runtime import project_timelines


def _timelines(devices, domain="train", prefix="gpu"):
    return [(f"{prefix}{i}", domain, d.timeline) for i, d in enumerate(devices)]


class TestProjectTimelines:
    def test_untagged_ops_project_to_nothing(self):
        gpu = SimulatedGPU()
        gpu.host_op(1e-3, label="work")
        gpu.transfer_h2d(1e6, label="x")
        assert project_timelines(_timelines([gpu])) == ({}, [])

    def test_stage_ops_become_prefetch_totals_and_spans(self):
        devices = [SimulatedGPU(), SimulatedGPU()]
        pipe = DataPipe(DataPipeConfig(prefetch_depth=2))
        for index, device in enumerate(devices):
            Prefetcher(pipe, device, device_index=index).schedule(
                PipeItem(label=f"p{index}", num_snapshots=2, transfer_bytes=1e6)
            )
        totals, spans = project_timelines(_timelines(devices))
        for stage in pipe.stages:
            assert totals[f"prefetch.{stage}.count"] == 2.0
            ops = [
                op
                for d in devices
                for op in d.timeline.ops
                if op.attrs.get("stage") == stage
            ]
            assert totals[f"prefetch.{stage}.seconds"] == sum(
                op.end - op.start for op in sorted(ops, key=lambda op: op.uid)
            )
        by_name = {span.name: span for span in spans}
        h2d = by_name["prefetch_h2d_p1"]
        assert h2d.category == "prefetch" and h2d.domain == "train"
        # The span's device is the timeline the op sits on.
        assert h2d.attrs == {"stage": "h2d", "item": "p1", "device": 1}

    def test_cache_lookup_rides_the_gather_op(self):
        device = SimulatedGPU()
        plan = AccessPlan(
            total_bytes=4e6,
            gpu_bytes=1e6,
            pinned_bytes=2e6,
            miss_bytes=1e6,
            gpu_hits=1,
            pinned_hits=2,
            misses=1,
            block_keys=((0, 0), (0, 1)),
        )
        item = apply_cache_plan(
            PipeItem(label="p3", num_snapshots=1, transfer_bytes=4e6), plan
        )
        assert (item.transfer_bytes, item.gather_bytes, item.pin_bytes) == (
            3e6,
            1e6,
            1e6,
        )
        Prefetcher(DataPipe(), device).schedule(item)
        (gather,) = [op for op in device.timeline.ops if op.label == "gather_p3"]
        assert gather.attrs["hb_reads"] == [(0, 0), (0, 1)]
        totals, spans = project_timelines(_timelines([device]))
        assert totals["memory.cache.accesses"] == 4
        assert totals["memory.cache.hits"] == 3
        assert totals["memory.cache.misses"] == 1
        assert totals["memory.cache.gpu_bytes"] == 1e6
        assert totals["memory.cache.pinned_bytes"] == 2e6
        assert totals["memory.cache.miss_bytes"] == 1e6
        (marker,) = [s for s in spans if s.category == "cache"]
        assert marker.name == "cache_p3"
        assert marker.start == marker.end == gather.start
        assert marker.attrs == {
            "device": 0,
            "gpu_bytes": 1e6,
            "pinned_bytes": 2e6,
            "miss_bytes": 1e6,
            "hits": 3,
            "misses": 1,
        }

    def test_collectives_count_once_and_only_in_the_train_domain(self):
        group = DeviceGroup([SimulatedGPU() for _ in range(3)])
        group.all_reduce(1e6, label="grad_all_reduce")
        group.all_reduce(2e6, label="grad_all_reduce")
        group.send(0, 2, 5e5, label="state_p0")
        group.send(2, 1, 25e4, label="state_p1")
        totals, spans = project_timelines(_timelines(group.devices))
        assert spans == []
        assert totals == {
            "collective.all_reduce.count": 2.0,
            "collective.all_reduce.bytes": 3e6,
            "collective.peer_transfer.count": 2.0,
            "collective.peer_transfer.bytes": 75e4,
        }
        serving = project_timelines(
            _timelines(group.devices, domain="serve", prefix="serve_gpu")
        )
        assert serving == ({}, [])

    def test_bubble_span_runs_from_local_ready_to_the_kernel(self):
        devices = [SimulatedGPU(), SimulatedGPU()]
        devices[1].host_op(1e-3, label="filler")
        chained = devices[1].host_op(1e-3, label="chained")
        devices[1].timeline.annotate(chained, bubble_from=7.5e-4)
        totals, spans = project_timelines(_timelines(devices))
        assert totals == {
            "pipeline.bubbles": 1.0,
            "pipeline.bubble_seconds": chained.start - 7.5e-4,
        }
        (bubble,) = spans
        assert (bubble.name, bubble.category) == ("bubble", "bubble")
        assert (bubble.start, bubble.end) == (7.5e-4, chained.start)
        assert bubble.attrs == {"stage": 1}

    def test_totals_add_in_submission_order_across_timelines(self):
        """Float totals must sum in the order the ops were scheduled, not
        timeline by timeline, so the sum matches a live accumulator."""
        devices = [SimulatedGPU(), SimulatedGPU()]
        # Alternating devices; summing device by device would give
        # 1e-16 + 1e-16 + 1.0 != 1e-16 + 1.0 + 1e-16.
        for step, seconds in enumerate([1e-16, 1.0, 1e-16, 0.0]):
            devices[step % 2].host_op(
                seconds, label=f"slice_p{step}", attrs={"stage": "slice"}
            )
        in_order = per_device = 0.0
        for op in sorted(
            (op for d in devices for op in d.timeline.ops), key=lambda op: op.uid
        ):
            in_order += op.end - op.start
        for op in (op for d in devices for op in d.timeline.ops):
            per_device += op.end - op.start
        assert in_order != per_device
        totals, _ = project_timelines(_timelines(devices))
        assert totals["prefetch.slice.seconds"] == in_order

    def test_cache_markers_ride_the_device_prefetch_thread(self):
        devices = [SimulatedGPU(), SimulatedGPU()]
        plan = AccessPlan(total_bytes=1e6, miss_bytes=1e6, misses=1)
        for index, device in enumerate(devices):
            Prefetcher(DataPipe(), device, device_index=index).schedule(
                apply_cache_plan(
                    PipeItem(label="p0", num_snapshots=1, transfer_bytes=1e6), plan
                )
            )
        timelines = _timelines(devices)
        _, spans = project_timelines(timelines)
        doc = build_chrome_trace(
            [TraceTrack(name, tl, domain=dom) for name, dom, tl in timelines], spans
        )
        events = doc["traceEvents"]
        threads = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        markers = [e for e in events if e.get("cat") == "cache"]
        assert sorted(e["pid"] for e in markers) == [1, 2]
        assert {threads[(e["pid"], e["tid"])] for e in markers} == {"prefetch"}


@pytest.fixture(scope="module")
def pipeline_engine() -> Engine:
    data = read_preset("pipeline-4gpu")
    data.update(num_snapshots=8, epochs=2)
    engine = Engine.from_spec(RunSpec.from_dict(data))
    engine.train()
    return engine


class TestEngineProjection:
    def test_report_twice_gives_equal_metrics(self, pipeline_engine):
        first = pipeline_engine.report().metrics
        second = pipeline_engine.report().metrics
        assert {k: float(v).hex() for k, v in first.items()} == {
            k: float(v).hex() for k, v in second.items()
        }
        for key in (
            "collective.all_reduce.seconds",
            "collective.peer_transfer.seconds",
            "pipeline.bubble_seconds",
            "prefetch.h2d.seconds",
        ):
            assert first[key] > 0

    def test_collective_seconds_are_the_groups_charged_seconds(self, pipeline_engine):
        metrics = pipeline_engine.report().metrics
        group = pipeline_engine.trainer.group
        assert group.collective_seconds
        for kind, seconds in group.collective_seconds.items():
            assert metrics[f"collective.{kind}.seconds"] == seconds
        extras = pipeline_engine.report().training.extras
        assert metrics["pipeline.bubble_seconds"] == extras["pipeline_bubble_seconds"]

    def test_fleet_prefetch_spans_sit_on_their_own_replica(self, tmp_path):
        """Each serving replica's prefetch spans land on that replica's
        track: four datapipe stages per ``h2d_b*`` transfer it ran."""
        spec = {
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
        engine = Engine.from_spec(spec)
        engine.serve()
        doc = engine.export_trace(tmp_path / "fleet.json")
        events = doc["traceEvents"]
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        replicas = [pid for pid, name in names.items() if name.startswith("serve_gpu")]
        assert len(replicas) == 4
        busy = 0
        for pid in replicas:
            transfers = [
                e
                for e in events
                if e["ph"] == "X" and e["pid"] == pid and e["name"].startswith("h2d_b")
            ]
            prefetch = [
                e for e in events if e.get("cat") == "prefetch" and e["pid"] == pid
            ]
            assert len(prefetch) == 4 * len(transfers)
            assert {e["args"]["device"] for e in prefetch} <= {
                int(names[pid][len("serve_gpu"):])
            }
            busy += bool(transfers)
        assert busy > 1  # the check means something only if replicas share load
