"""Tests for the fleet serving engine: routing, admission, autoscale, parity."""

from __future__ import annotations

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.distributed.fleet as fleet_module
from repro.distributed import (
    FleetConfig,
    FleetServingEngine,
    build_fleet_serving_engine,
    build_sharded_serving_engine,
)
from repro.graph import load_dataset
from repro.memory import MemoryConfig
from repro.nn import build_model
from repro.nn.base_model import DGNNModel
from repro.serving import ServingConfig, random_delta, synthesize_serving_trace
from repro.serving.metrics import RequestRecord
from repro.serving.scheduler import _build_serving_scheduler
from repro.serving.session import InferenceSession
from repro.telemetry.runtime import project_serving


def make_fleet(graph, *, fleet=None, model_seed=0, **config_kwargs):
    defaults = dict(window=4, max_batch_requests=4, max_delay_ms=0.5)
    defaults.update(config_kwargs)
    model = build_model("tgcn", graph.feature_dim, 8, seed=model_seed)
    return build_fleet_serving_engine(
        graph, model, fleet or FleetConfig(num_shards=3), ServingConfig(**defaults)
    )


@pytest.fixture
def fast_autoscale(monkeypatch):
    """The autoscaler's rolling window and cooldown shrunk to 4 and 2."""
    monkeypatch.setattr(fleet_module, "SCALE_WINDOW", 4)
    monkeypatch.setattr(fleet_module, "SCALE_COOLDOWN", 2)


def shard_interior_node(engine: FleetServingEngine, shard: int) -> int:
    """A node id strictly owned by ``shard`` under the engine's plan."""
    return int(engine.boundaries[shard])


def served_by(engine, request_id: int) -> int:
    """The replica that served ``request_id`` (pumps every queue first)."""
    engine.pump(0.0, force=True)
    (shard,) = [
        index
        for index, replica in enumerate(engine.replicas)
        if any(record.request_id == request_id for record in replica.metrics.requests)
    ]
    return shard


class TestFleetRouting:
    def test_requests_route_to_owner_shard(self, small_graph):
        engine = make_fleet(
            small_graph, fleet=FleetConfig(num_shards=3, min_replicas=3)
        )
        for shard in range(3):
            lo, hi = int(engine.boundaries[shard]), int(engine.boundaries[shard + 1])
            gid = engine.submit(range(lo, hi), at=0.0)
            assert served_by(engine, gid) == shard
            assert np.searchsorted(engine.boundaries, lo, side="right") - 1 == shard

    def test_majority_owner_wins(self, small_graph):
        engine = make_fleet(
            small_graph, fleet=FleetConfig(num_shards=3, min_replicas=3)
        )
        two_here = [shard_interior_node(engine, 1), shard_interior_node(engine, 1) ]
        one_there = [shard_interior_node(engine, 0)]
        gid = engine.submit(two_here + one_there, at=0.0)
        assert served_by(engine, gid) == 1

    def test_owner_tie_breaks_by_queue_depth(self, small_graph):
        engine = make_fleet(
            small_graph,
            fleet=FleetConfig(num_shards=2, min_replicas=2, admission_limit=32),
            max_batch_requests=32,
            max_delay_ms=50.0,
        )
        # Load shard 0's queue without pumping.
        for _ in range(3):
            engine.submit([shard_interior_node(engine, 0)], at=0.0)
        assert engine.replicas[0].batcher.pending == 3
        # One node from each shard: ownership ties, lower queue depth wins.
        tied = [shard_interior_node(engine, 0), shard_interior_node(engine, 1)]
        gid = engine.submit(tied, at=0.0)
        assert served_by(engine, gid) == 1

    def test_replicas_share_one_store(self, small_graph):
        engine = make_fleet(small_graph)
        assert all(replica.store is engine.store for replica in engine.replicas)
        # One delta application advances every replica's view at once.
        trace = synthesize_serving_trace(small_graph[-1], 30, seed=2)
        delta = next(e.delta for e in trace if e.kind == "delta")
        before = engine.store.deltas_applied
        engine.ingest(delta, at=0.0)
        assert engine.store.deltas_applied == before + 1
        versions = {tuple(r.store.window_versions()) for r in engine.replicas}
        assert len(versions) == 1


class TestAdmissionControl:
    def make_admission_fleet(self, graph, limit=2):
        return make_fleet(
            graph,
            fleet=FleetConfig(num_shards=2, min_replicas=1, admission_limit=limit),
            max_batch_requests=32,
            max_delay_ms=50.0,
        )

    def test_sheds_requests_above_queue_limit(self, small_graph):
        engine = self.make_admission_fleet(small_graph, limit=2)
        ids = [engine.submit([1], at=0.0) for _ in range(5)]
        assert ids[:2] == [0, 1]
        assert ids[2:] == [None, None, None]
        assert engine.rejected_requests == 3
        assert engine.replicas[0].batcher.pending == 2

    def test_global_ids_stay_contiguous_after_rejections(self, small_graph):
        """Shed requests must not burn request ids."""
        engine = self.make_admission_fleet(small_graph, limit=2)
        admitted = []
        for k in range(6):
            gid = engine.submit([k], at=0.0)
            if gid is not None:
                admitted.append(gid)
            if k == 3:  # drain so later submissions are admitted again
                engine.pump(0.0, force=True)
        assert admitted == list(range(len(admitted)))
        results = engine.pump(0.0, force=True)
        predicted = set()
        for result in results:
            predicted.update(result.predictions)
        assert predicted <= set(admitted)
        report = engine.report()
        assert report.extras["rejected_requests"] == float(engine.rejected_requests)
        assert report.extras["admitted_requests"] == float(len(admitted))
        assert report.metrics.num_requests == len(admitted)
        assert sorted(r.request_id for r in report.metrics.requests) == admitted

    def test_no_shedding_below_limit(self, small_graph):
        engine = self.make_admission_fleet(small_graph, limit=8)
        ids = [engine.submit([k], at=0.0) for k in range(5)]
        assert None not in ids
        assert engine.rejected_requests == 0


class TestAdmissionDepth:
    """The maintained depth counter must track queued + in-flight exactly."""

    def test_depth_counts_queued_then_in_flight(self, small_graph):
        engine = make_fleet(
            small_graph,
            fleet=FleetConfig(num_shards=2, min_replicas=1, admission_limit=8),
            max_batch_requests=32,
            max_delay_ms=50.0,
        )
        assert engine.queue_depth(0, 0.0) == 0
        for _ in range(3):
            engine.submit([1], at=0.0)
        assert engine.queue_depth(0, 0.0) == 3  # all still queued
        results = engine.pump(0.0, force=True)
        done = max(r.completion_time for r in results)
        assert done > 0.0
        # Executed but not yet complete on the simulated clock: in flight.
        assert engine.queue_depth(0, 0.0) == 3
        # Past the completion time the backlog fully drains.
        assert engine.queue_depth(0, done) == 0

    def test_rejected_requests_never_enter_the_depth(self, small_graph):
        engine = make_fleet(
            small_graph,
            fleet=FleetConfig(num_shards=2, min_replicas=1, admission_limit=2),
            max_batch_requests=32,
            max_delay_ms=50.0,
        )
        for _ in range(5):
            engine.submit([1], at=0.0)
        assert engine.rejected_requests == 3
        assert engine.queue_depth(0, 0.0) == 2

    def test_completions_reopen_admission(self, small_graph):
        engine = make_fleet(
            small_graph,
            fleet=FleetConfig(num_shards=2, min_replicas=1, admission_limit=2),
            max_batch_requests=32,
            max_delay_ms=50.0,
        )
        assert engine.submit([1], at=0.0) is not None
        assert engine.submit([1], at=0.0) is not None
        assert engine.submit([1], at=0.0) is None  # at the limit
        results = engine.pump(0.0, force=True)
        done = max(r.completion_time for r in results)
        # Once the batch completes the depth is back under the limit.
        assert engine.submit([1], at=done) is not None

    def test_depth_matches_record_scan(self, small_graph):
        """Cross-check the counter against the O(records) definition."""
        engine = make_fleet(
            small_graph,
            fleet=FleetConfig(num_shards=2, min_replicas=1, admission_limit=64),
            max_batch_requests=4,
            max_delay_ms=0.5,
        )
        trace = synthesize_serving_trace(small_graph[-1], 40, seed=4)
        engine.run_trace(trace)
        now = max(r.device.elapsed_seconds() for r in engine.replicas)
        for shard, replica in enumerate(engine.replicas):
            scanned = replica.batcher.pending + sum(
                1 for rec in replica.metrics.requests if rec.completion_time > now
            )
            assert engine.queue_depth(shard, now) == scanned


@pytest.mark.usefixtures("fast_autoscale")
class TestAutoscale:
    def pressure_fleet(self, graph, **fleet_kwargs):
        defaults = dict(
            num_shards=3,
            min_replicas=1,
            admission_limit=64,
            slo_p99_ms=1e-6,
        )
        defaults.update(fleet_kwargs)
        return make_fleet(graph, fleet=FleetConfig(**defaults))

    def test_scales_up_under_slo_pressure(self, small_graph):
        engine = self.pressure_fleet(small_graph)
        trace = synthesize_serving_trace(
            small_graph[-1], 60, seed=5, mean_interarrival_ms=0.05
        )
        report = engine.run_trace(trace)
        assert engine.active_replicas > 1
        assert any(e.direction == "up" for e in engine.scale_events)
        assert report.extras["scale_up_events"] >= 1.0
        assert report.extras["active_replicas"] == float(engine.active_replicas)

    def test_scale_events_project_to_serve_spans(self, small_graph):
        engine = self.pressure_fleet(small_graph)
        trace = synthesize_serving_trace(
            small_graph[-1], 60, seed=5, mean_interarrival_ms=0.05
        )
        report = engine.run_trace(trace)
        spans = [
            s for s in project_serving(report, engine.scale_events)
            if s.category == "scale"
        ]
        assert spans, "no scale event was recorded"
        # One zero-width serve-clock span per decision, at its time.
        assert [(s.name, s.domain, s.start, s.end) for s in spans] == [
            (f"fleet_scale_{e.direction}_to_{e.active_replicas}", "serve", e.at, e.at)
            for e in engine.scale_events
        ]

    def test_scales_down_when_latency_has_headroom(self, small_graph):
        engine = self.pressure_fleet(small_graph, slo_p99_ms=1e9)
        engine._active = 3  # as if a previous burst had scaled the pool up
        trace = synthesize_serving_trace(small_graph[-1], 60, seed=6)
        report = engine.run_trace(trace)
        assert engine.active_replicas < 3
        assert any(e.direction == "down" for e in engine.scale_events)
        assert report.extras["scale_down_events"] >= 1.0

    def test_pool_ceiling_is_the_shard_count(self, small_graph):
        engine = self.pressure_fleet(small_graph, num_shards=2)
        trace = synthesize_serving_trace(
            small_graph[-1], 80, seed=5, mean_interarrival_ms=0.05
        )
        engine.run_trace(trace)
        assert any(e.direction == "up" for e in engine.scale_events)
        assert engine.active_replicas <= 2
        assert all(1 <= e.active_replicas <= 2 for e in engine.scale_events)

    def test_inactive_replicas_absorb_deltas(self, small_graph):
        engine = self.pressure_fleet(small_graph)  # only replica 0 active
        trace = synthesize_serving_trace(small_graph[-1], 30, seed=2)
        delta = next(e.delta for e in trace if e.kind == "delta")
        engine.ingest(delta, at=0.0)
        assert all(r.metrics.deltas_ingested == 1 for r in engine.replicas)

    def test_idle_fleet_returns_to_min_replicas(self, small_graph):
        """Regression: pump ticks alone must drive scale-down — a fleet that
        stops receiving submissions would otherwise stay scaled up forever."""
        engine = self.pressure_fleet(small_graph, slo_p99_ms=1e9)
        engine._active = 3  # as if a previous burst had scaled the pool up
        for k in range(4):  # seed the rolling p99 window
            engine.submit([k], at=0.0)
        engine.pump(0.0, force=True)
        now = max(r.device.elapsed_seconds() for r in engine.replicas)
        for tick in range(12):  # idle: pump ticks only, no submissions
            engine.pump(now + tick)
        assert engine.active_replicas == engine.fleet_config.min_replicas
        assert any(e.direction == "down" for e in engine.scale_events)


    # Few distinct times, so equal (completion, arrival) keys land on
    # different replicas and in different calls, and equal completion times
    # come with different arrivals (and latencies).
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        appends=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.lists(
                    st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0])),
                    max_size=6,
                ),
            ),
            max_size=8,
        ),
        window=st.integers(min_value=1, max_value=6),
    )
    def test_rolling_p99_equals_a_full_sort(self, small_graph, monkeypatch, appends, window):
        monkeypatch.setattr(fleet_module, "SCALE_WINDOW", window)
        engine = make_fleet(small_graph, fleet=FleetConfig(num_shards=3))

        def full_sort_p99() -> float:
            records = [r for replica in engine.replicas for r in replica.metrics.requests]
            if not records:
                return math.nan
            records.sort(key=lambda r: (r.completion_time, r.arrival_time))
            return float(np.percentile([r.latency for r in records[-window:]], 99.0))

        request_id = 0
        for shard, times in appends:
            for arrival, wait in times:
                engine.replicas[shard].metrics.record_request(
                    RequestRecord(request_id, 0, arrival, arrival + wait, 1)
                )
                request_id += 1
            expected, got = full_sort_p99(), engine._recent_p99_seconds()
            assert got.hex() == expected.hex() or math.isnan(got) and math.isnan(expected)


    def test_rolling_p99_recomputed_only_after_inserts(self, small_graph, monkeypatch):
        engine = make_fleet(small_graph, fleet=FleetConfig(num_shards=3))
        calls = []
        percentile = np.percentile

        def counting(*args, **kwargs):
            calls.append(args)
            return percentile(*args, **kwargs)

        monkeypatch.setattr(np, "percentile", counting)
        assert math.isnan(engine._recent_p99_seconds()) and not calls
        for request_id, (shard, latency) in enumerate([(0, 1.0), (2, 3.0), (1, 2.0)]):
            engine.replicas[shard].metrics.record_request(
                RequestRecord(request_id, 0, 0.0, latency, 1)
            )
            first = engine._recent_p99_seconds()
            assert engine._recent_p99_seconds() == first
            assert len(calls) == request_id + 1
        assert first == percentile([1.0, 2.0, 3.0], 99.0)


class TestHaloGather:
    def test_remote_rows_charge_a_gather(self, small_graph):
        engine = make_fleet(
            small_graph, fleet=FleetConfig(num_shards=2, min_replicas=2)
        )
        # Entirely local request: no halo traffic.
        engine.submit([shard_interior_node(engine, 0)], at=0.0)
        engine.pump(0.0, force=True)
        assert engine.report().extras["halo_gather_batches"] == 0
        # Majority shard 0, one remote row: the batch pays a gather.
        spanning = [
            shard_interior_node(engine, 0),
            int(engine.boundaries[1]) - 1,
            shard_interior_node(engine, 1),
        ]
        gid = engine.submit(spanning, at=0.0)
        assert served_by(engine, gid) == 0
        report = engine.report()
        assert report.extras["halo_gather_batches"] == 1
        ((_, gather_bytes, seconds),) = engine.replicas[0].halo_gathers
        assert report.extras["halo_gather_bytes"] == gather_bytes > 0
        assert report.extras["halo_gather_seconds"] == seconds > 0


class TestFleetReport:
    def test_zero_request_shard_keeps_nan_percentiles(self, small_graph):
        engine = make_fleet(
            small_graph, fleet=FleetConfig(num_shards=3, min_replicas=3)
        )
        # All traffic inside shard 0's range: shards 1 and 2 stay idle.
        for _ in range(4):
            engine.submit([shard_interior_node(engine, 0)], at=0.0)
        engine.pump(0.0, force=True)
        report = engine.report()
        assert report.extras["shard1_requests"] == 0.0
        assert report.extras["shard2_requests"] == 0.0
        assert np.isnan(engine.replicas[1].metrics.latency_percentile(99.0))
        assert np.isfinite(report.metrics.p99_latency)
        assert report.metrics.num_requests == 4

    def test_node_sharded_store_accounting(self, small_graph):
        engine = make_fleet(small_graph, fleet=FleetConfig(num_shards=3))
        report = engine.report()
        full = report.extras["fleet_store_bytes"]
        per_replica = report.extras["per_replica_store_bytes"]
        assert full == float(engine.store.window_bytes())
        # Node-sharding must beat full replication per replica (halo rows and
        # the compacted CSR keep it above exactly 1/K).
        assert per_replica < full
        shard_bytes = [report.extras[f"shard{s}_store_bytes"] for s in range(3)]
        assert np.mean(shard_bytes) == pytest.approx(per_replica)

    def test_prefetch_aggregates_surface(self, small_graph):
        engine = make_fleet(small_graph, fleet=FleetConfig(num_shards=2, min_replicas=2))
        trace = synthesize_serving_trace(small_graph[-1], 40, seed=3)
        report = engine.run_trace(trace)
        assert report.extras["prefetch_depth"] == float(
            engine.replicas[0].data.prefetch_depth
        )
        assert report.extras["prefetch_host_seconds"] == pytest.approx(
            sum(r.prefetcher.stats()["prefetch_host_seconds"] for r in engine.replicas)
        )
        assert report.engine == "PiPAD-Fleet-x2"
        assert report.dataset == small_graph.name


class TestFleetFeatureCache:
    def test_replica_caches_scoped_to_owned_rows_and_reported(self, small_graph):
        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        engine = build_fleet_serving_engine(
            small_graph,
            model,
            FleetConfig(num_shards=2, min_replicas=2),
            ServingConfig(
                window=4, max_batch_requests=4, max_delay_ms=0.5, enable_reuse=False
            ),
            memory=MemoryConfig(
                feature_cache=True, gpu_budget_mb=1.0, pinned_budget_mb=1.0,
                block_rows=16,
            ),
        )
        for shard in range(2):
            replica = engine.replicas[shard]
            assert replica.feature_cache is not None
            assert replica._cache_lo == int(engine.boundaries[shard])
            assert replica._cache_hi == int(engine.boundaries[shard + 1])
        engine.submit([shard_interior_node(engine, 0)], at=0.0)
        engine.submit([shard_interior_node(engine, 1)], at=0.0)
        engine.pump(0.0, force=True)
        report = engine.report()
        assert report.extras["feature_cache_misses"] > 0
        assert 0.0 <= report.extras["feature_cache_hit_rate"] <= 1.0


class TestDeterminismAndParity:
    @pytest.mark.usefixtures("fast_autoscale")
    def test_run_trace_replay_is_deterministic(self, small_graph):
        """Golden-style: two identically built fleets replay one trace to
        byte-identical request records, rejections and scale decisions."""
        trace = synthesize_serving_trace(
            small_graph[-1], 60, seed=9, mean_interarrival_ms=0.05
        )
        fleet_cfg = dict(num_shards=3, min_replicas=1, admission_limit=3, slo_p99_ms=0.5)
        reports = []
        engines = []
        for _ in range(2):
            engine = make_fleet(
                small_graph,
                fleet=FleetConfig(**fleet_cfg),
                max_batch_requests=8,
                max_delay_ms=5.0,
            )
            reports.append(engine.run_trace(list(trace)))
            engines.append(engine)
        a, b = reports
        assert [
            (r.request_id, r.batch_id, r.arrival_time, r.completion_time)
            for r in a.metrics.requests
        ] == [
            (r.request_id, r.batch_id, r.arrival_time, r.completion_time)
            for r in b.metrics.requests
        ]
        assert engines[0].rejected_requests == engines[1].rejected_requests
        assert engines[0].scale_events == engines[1].scale_events
        assert a.simulated_seconds == b.simulated_seconds

    @pytest.mark.parametrize("enable_reuse", [False, True])
    def test_predictions_match_single_device(self, small_graph, enable_reuse):
        """Node-sharding, routing and halo gathers are scheduling-only: every
        admitted request's prediction rows match the single-device engine.

        With the reuse cache off the match is bit-identical.  With it on, the
        incremental delta patch depends on which session was warm when the
        delta landed (a pre-existing property of ``InferenceSession.refresh``,
        shared with the round-robin sharded engine), so the match is only
        up to float32 patch-vs-recompute rounding.
        """
        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        config = ServingConfig(
            window=4,
            max_batch_requests=4,
            max_delay_ms=0.5,
            enable_reuse=enable_reuse,
        )
        single = _build_serving_scheduler(small_graph, model, config)
        fleet = build_fleet_serving_engine(
            small_graph,
            model,
            FleetConfig(num_shards=3, min_replicas=3, admission_limit=1024),
            config,
        )
        trace = synthesize_serving_trace(small_graph[-1], 60, seed=13)
        single_preds, fleet_preds, pairs = {}, {}, []
        for event in sorted(trace, key=lambda e: e.time):
            for result in fleet.pump(event.time):
                fleet_preds.update(result.predictions)
            for result in single.pump(event.time):
                single_preds.update(result.predictions)
            if event.kind == "delta":
                fleet.ingest(event.delta, at=event.time)
                single.ingest(event.delta, at=event.time)
            else:
                pairs.append(
                    (
                        fleet.submit(event.node_ids, at=event.time),
                        single.submit(event.node_ids, at=event.time),
                    )
                )
        for result in fleet.pump(None, force=True):
            fleet_preds.update(result.predictions)
        for result in single.pump(None, force=True):
            single_preds.update(result.predictions)
        assert pairs and all(fid is not None for fid, _ in pairs)
        for fleet_id, single_id in pairs:
            if enable_reuse:
                np.testing.assert_allclose(
                    fleet_preds[fleet_id], single_preds[single_id], rtol=1e-5
                )
            else:
                np.testing.assert_array_equal(
                    fleet_preds[fleet_id], single_preds[single_id]
                )


class TestSharedWindowState:
    """Replicas share what the window derives from versions, not their caches."""

    def test_replicas_share_kernels_but_count_reuse_apart(self, small_graph):
        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        engine = build_sharded_serving_engine(
            small_graph, model, 2, ServingConfig(window=4, max_batch_requests=4)
        )
        first, second = (replica.session for replica in engine.replicas)
        for s_per in (1, 2, 4):
            for a, b in zip(first.kernels_for(s_per), second.kernels_for(s_per)):
                assert a is b
        nodes = np.arange(5)
        for _ in range(2):
            first.predict(nodes, s_per=2)

        def counts(session):
            reuse = session.reuse
            return reuse.cpu_hits + reuse.gpu_hits, reuse.misses

        def passes():
            return sum(kind[0] == "forward" for _, kind in engine.store._shared)

        assert counts(first) == (4, 4)
        assert counts(second) == (0, 0)
        assert first.reuse.stats() != second.reuse.stats()
        assert passes() == 2
        # The second replica's cold pass is the first replica's first one,
        # shared, yet it is counted against the second replica's own cache.
        second.predict(nodes, s_per=2)
        assert passes() == 2
        assert counts(first) == (4, 4)
        assert counts(second) == (0, 4)

    def test_one_forward_pass_per_distinct_input(self, small_graph, monkeypatch):
        """A pass's input is the window, ``S_per`` and the cached bytes."""
        calls, passes, inputs = [], [], set()
        predict, predict_frame = InferenceSession.predict, DGNNModel.predict_frame

        def counting_predict(session, node_ids, *, s_per=1):
            versions = tuple(session.store.window_versions())
            cached = tuple(
                None if a is None else a.tobytes()
                for a in (session.reuse.peek(v) for v in versions)
            )
            calls.append(s_per)
            inputs.add((versions, s_per, cached))
            return predict(session, node_ids, s_per=s_per)

        def counting_predict_frame(model, *args, **kwargs):
            passes.append(model)
            return predict_frame(model, *args, **kwargs)

        monkeypatch.setattr(InferenceSession, "predict", counting_predict)
        monkeypatch.setattr(DGNNModel, "predict_frame", counting_predict_frame)
        engine = make_fleet(
            small_graph, fleet=FleetConfig(num_shards=3, min_replicas=3, admission_limit=1024)
        )
        for event in sorted(synthesize_serving_trace(small_graph[-1], 60, seed=13),
                            key=lambda e: e.time):
            engine.pump(event.time)
            if event.kind == "delta":
                engine.ingest(event.delta, at=event.time)
            else:
                engine.submit(event.node_ids, at=event.time)
        engine.pump(None, force=True)
        assert len(passes) == len(inputs) < len(calls)

    def test_a_delta_keeps_groups_of_surviving_versions(self, small_graph):
        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        engine = build_sharded_serving_engine(
            small_graph, model, 2, ServingConfig(window=4, max_batch_requests=4)
        )
        store = engine.store
        first, second = (replica.session for replica in engine.replicas)
        before = first.kernels_for(2)
        rng = np.random.default_rng(3)
        for _ in range(2):
            delta, _ = random_delta(
                store.head.adjacency.edge_keys(), store.num_nodes, rng,
                feature_dim=store.feature_dim,
            )
            engine.ingest(delta, at=0.0)
        after = second.kernels_for(2)
        # Two deltas shift the window by one group of two: the newer group
        # of the old window is the older group of the new one.
        assert after[0] is before[1]
        window = set(store.window_versions())
        assert all(set(versions) <= window for versions, _ in store._shared)


class TestFleetVsRoundRobin:
    """One skewed burst on youtube, K=4: the fleet against round-robin sharding.

    70 % of the requests are remapped into shard 0's node range and arrive
    0.05 ms apart; ``scale=100`` slows the simulated compute so the burst
    saturates it.  Both engines serve the same trained model and trace.
    """

    @pytest.fixture(scope="class")
    def reports(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fleet_module, "SCALE_WINDOW", 8)
            patch.setattr(fleet_module, "SCALE_COOLDOWN", 4)
            return self._serve_burst()

    @staticmethod
    def _serve_burst():
        graph = load_dataset("youtube", num_snapshots=8)
        model = build_model("tgcn", graph.feature_dim, 8, seed=0)
        config = ServingConfig(window=4, max_batch_requests=8, max_delay_ms=0.5)
        fleet = build_fleet_serving_engine(
            graph,
            model,
            FleetConfig(num_shards=4, min_replicas=1, admission_limit=8, slo_p99_ms=1.0),
            config,
            scale=100.0,
        )
        lo, hi = int(fleet.boundaries[0]), int(fleet.boundaries[1])
        rng = np.random.default_rng(7)
        trace = []
        for event in synthesize_serving_trace(
            graph[-1], 120, seed=7, mean_interarrival_ms=0.05, nodes_per_request=4
        ):
            if event.kind == "request" and rng.random() < 0.7:
                ids = lo + (np.asarray(event.node_ids, dtype=np.int64) % (hi - lo))
                event = dataclasses.replace(event, node_ids=ids)
            trace.append(event)
        sharded = build_sharded_serving_engine(graph, model, 4, config, scale=100.0)
        return fleet.run_trace(list(trace)), sharded.run_trace(list(trace))

    def test_node_sharding_cuts_per_replica_store_by_about_k(self, reports):
        fleet, sharded = reports
        ratio = sharded.extras["per_replica_store_bytes"] / fleet.extras["per_replica_store_bytes"]
        assert ratio > 0.7 * 4

    def test_overload_is_shed_so_admitted_p99_beats_round_robin(self, reports):
        fleet, sharded = reports
        assert fleet.extras["rejected_requests"] > 0
        assert fleet.metrics.p99_latency < sharded.metrics.p99_latency

    def test_burst_triggers_a_scale_up(self, reports):
        assert reports[0].extras["scale_up_events"] >= 1


class TestFleetValidation:
    def test_config_bounds_rejected(self):
        with pytest.raises(ValueError, match="min_replicas"):
            FleetConfig(num_shards=2, min_replicas=3)
        with pytest.raises(ValueError):
            FleetConfig(num_shards=0)

    def test_replica_count_must_match_config(self, small_graph):
        engine = make_fleet(small_graph, fleet=FleetConfig(num_shards=2))
        with pytest.raises(ValueError, match="replicas were provided"):
            FleetServingEngine(engine.replicas, engine.store, FleetConfig(num_shards=3))

    def test_replicas_must_share_the_store(self, small_graph):
        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        # Built one by one, each replica gets its own store.
        replicas = [_build_serving_scheduler(small_graph, model) for _ in range(2)]
        with pytest.raises(ValueError, match="share one IncrementalSnapshotStore"):
            FleetServingEngine(replicas, replicas[0].store, FleetConfig(num_shards=2))


class TestFleetLifetime:
    def test_finished_engine_is_freed_without_the_cycle_collector(self, small_graph):
        """A served fleet engine holds no reference cycle: dropping the last
        reference frees it at once, not at the next cyclic collection."""
        engine = make_fleet(small_graph, fleet=FleetConfig(num_shards=2, min_replicas=2))
        engine.run_trace(synthesize_serving_trace(small_graph[-1], 40, seed=3))
        assert engine.report().extras["halo_gather_batches"] > 0
        ref = weakref.ref(engine)
        gc.collect()
        gc.disable()
        try:
            del engine
            assert ref() is None
        finally:
            gc.enable()
