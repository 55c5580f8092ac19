"""Tests for the inference session, serving policy and scheduler.

Engine/model/store wiring comes from the shared fixtures in
``tests/conftest.py`` (``make_serving_engine``, ``reference_aggregation``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Engine, RunSpec, ServingSpec, TraceSpec
from repro.gpu import SimulatedGPU
from repro.core import ReuseManager
from repro.serving import GraphDelta, random_delta, synthesize_serving_trace


class TestInferenceSession:
    def test_incremental_patch_matches_full_recompute(
        self, make_serving_engine, reference_aggregation
    ):
        engine = make_serving_engine()
        session, store = engine.session, engine.store
        # Populate the cache for the current head via one forward pass.
        session.predict(np.arange(4), s_per=2)
        assert session.reuse.has_cached(store.version)
        # Apply a topology + feature delta and patch incrementally.
        rng = np.random.default_rng(2)
        delta, _ = random_delta(
            store.head.adjacency.edge_keys(), store.num_nodes, rng,
            feature_dim=store.feature_dim,
        )
        report = store.apply(delta)
        assert report.num_touched > 0
        session.refresh(report)
        patched = session.reuse.peek(report.version)
        assert patched is not None
        np.testing.assert_allclose(
            patched, reference_aggregation(store.head), rtol=1e-5, atol=1e-6
        )

    def test_refresh_invalidates_evicted_version(self, make_serving_engine):
        engine = make_serving_engine()
        session, store = engine.session, engine.store
        session.predict(np.arange(2), s_per=4)
        evict_candidate = store.window_versions()[0]
        assert session.reuse.has_cached(evict_candidate)
        report = store.apply(GraphDelta.empty())
        session.refresh(report)
        assert report.evicted_version == evict_candidate
        assert not session.reuse.has_cached(evict_candidate)

    def test_predictions_identical_with_and_without_reuse(self, make_serving_engine):
        reuse_engine = make_serving_engine(enable_reuse=True)
        naive_engine = make_serving_engine(enable_reuse=False)
        nodes = np.arange(6)
        # Warm the reuse cache, then predict again (cache-served path).
        reuse_engine.session.predict(nodes, s_per=2)
        warm, _ = reuse_engine.session.predict(nodes, s_per=2)
        cold, _ = naive_engine.session.predict(nodes, s_per=2)
        np.testing.assert_allclose(warm, cold, rtol=1e-5, atol=1e-6)

    def test_predictions_invariant_to_s_per(self, make_serving_engine):
        engine = make_serving_engine(enable_reuse=False)
        nodes = np.arange(5)
        one, _ = engine.session.predict(nodes, s_per=1)
        four, _ = engine.session.predict(nodes, s_per=4)
        np.testing.assert_allclose(one, four, rtol=1e-5, atol=1e-6)

    def test_stale_cache_would_differ_hence_invalidation_matters(
        self, make_serving_engine
    ):
        """A topology delta changes the aggregation, so serving stale cache
        rows would be wrong — this pins down why refresh() must patch."""
        engine = make_serving_engine()
        store = engine.store
        engine.session.predict(np.arange(2), s_per=4)
        stale = np.array(engine.session.reuse.peek(store.version), copy=True)
        keys = store.head.adjacency.edge_keys()
        n = store.num_nodes
        delta = GraphDelta(
            removed_edges=np.array([[int(keys[0]) // n, int(keys[0]) % n]])
        )
        report = store.apply(delta)
        engine.session.refresh(report)
        fresh = engine.session.reuse.peek(report.version)
        assert not np.allclose(stale, fresh)


class TestServingScheduler:
    def test_run_trace_end_to_end(self, make_serving_engine):
        engine = make_serving_engine()
        trace = synthesize_serving_trace(engine.store.head, 60, seed=4)
        report = engine.run_trace(trace)
        num_requests = sum(1 for e in trace if e.kind == "request")
        num_deltas = len(trace) - num_requests
        assert report.metrics.num_requests == num_requests
        assert report.metrics.deltas_ingested == num_deltas
        assert report.metrics.cache_hit_rate > 0
        assert report.p99_latency >= report.p50_latency > 0
        assert report.throughput_rps > 0

    def test_latency_includes_arrival_wait(self, make_serving_engine):
        engine = make_serving_engine(max_delay_ms=0.0)
        rid = engine.submit([0, 1], at=5.0)
        (result,) = engine.pump(5.0, force=True)
        record = engine.metrics.requests[0]
        assert record.request_id == rid
        assert record.completion_time >= 5.0  # not_before honoured
        assert record.latency > 0

    def test_batch_predictions_routed_per_request(self, make_serving_engine):
        engine = make_serving_engine(max_batch_requests=2, max_delay_ms=1000.0)
        a = engine.submit([0, 1], at=0.0)
        b = engine.submit([1, 2], at=0.0)
        (result,) = engine.pump(0.0)
        assert set(result.predictions) == {a, b}
        assert result.predictions[a].shape[0] == 2
        # Shared node 1 gets the same prediction in both requests.
        np.testing.assert_allclose(
            result.predictions[a][1], result.predictions[b][0]
        )

    def test_tuner_policy_picks_candidate(self, make_serving_engine):
        engine = make_serving_engine()
        engine.submit([0], at=0.0)
        engine.pump(0.0, force=True)
        (decision,) = engine.policy.decisions
        assert decision.s_per in engine.policy.tuner.candidates
        assert "forward-only" in decision.reason

    def test_fixed_s_per_bypasses_tuner(self, make_serving_engine):
        engine = make_serving_engine(fixed_s_per=2)
        engine.submit([0], at=0.0)
        engine.pump(0.0, force=True)
        assert engine.policy.decisions[0].s_per == 2
        assert engine.policy.decisions[0].reason == "fixed by configuration"

    def test_incremental_beats_naive_on_same_trace(self, small_graph, make_serving_engine):
        trace = synthesize_serving_trace(small_graph[-1], 80, seed=11)
        fast = make_serving_engine().run_trace(trace)
        slow = make_serving_engine(
            enable_reuse=False, fixed_s_per=1, enable_pipeline=False
        ).run_trace(trace)
        assert fast.metrics.mean_latency < slow.metrics.mean_latency
        assert fast.cache_hit_rate > 0 and slow.cache_hit_rate == 0

    def test_models_all_serve(self, make_serving_engine):
        for name in ("tgcn", "evolvegcn", "mpnn_lstm"):
            engine = make_serving_engine(model_name=name)
            engine.submit([0, 1], at=0.0)
            results = engine.pump(0.0, force=True)
            assert results and np.isfinite(
                results[0].predictions[0]
            ).all(), name


class TestIncrementalVsRecompute:
    """One 200-event trace on covid19_england through both serving specs.

    PiPAD-Serve (reuse cache, pipelined streams, tuned partitions) against
    full recompute of one snapshot at a time, with the same trained weights.
    """

    @pytest.fixture(scope="class")
    def reports(self):
        spec = RunSpec(
            dataset="covid19_england", model="tgcn", method="pipad", num_snapshots=16,
            frame_size=8, epochs=2, lr=5e-3, seed=3, pipad={"preparing_epochs": 1},
            serving=ServingSpec(
                window=8, max_batch_requests=8, max_delay_ms=1.0,
                trace=TraceSpec(
                    num_events=200, request_fraction=0.7, nodes_per_request=8,
                    mean_interarrival_ms=0.5, seed=13,
                ),
            ),
        )
        engine = Engine.from_spec(spec)
        trace = engine.default_trace()
        naive_spec = spec.replace(
            serving=spec.serving.replace(enable_reuse=False, fixed_s_per=1, enable_pipeline=False)
        )
        naive = Engine.from_spec(naive_spec, graph=engine.graph, model=engine.model)
        return engine.serve(trace), naive.serve(trace)

    def test_same_requests_and_only_incremental_reuses(self, reports):
        incremental, naive = reports
        assert incremental.metrics.num_requests == naive.metrics.num_requests > 0
        assert incremental.cache_hit_rate > 0.5
        assert naive.cache_hit_rate == 0.0

    def test_incremental_wins_on_latency_and_pcie_bytes(self, reports):
        incremental, naive = reports
        assert incremental.metrics.mean_latency < naive.metrics.mean_latency
        assert incremental.p99_latency <= naive.p99_latency * 1.05
        assert incremental.breakdown.get("h2d", 0.0) < naive.breakdown.get("h2d", 0.0)


class TestReuseForwardOnlyAPI:
    def test_peek_does_not_count_stats(self):
        manager = ReuseManager(SimulatedGPU())
        manager.store(3, np.ones((2, 2), dtype=np.float32))
        assert manager.peek(3) is not None
        assert manager.peek(4) is None
        assert manager.cpu_hits == 0 and manager.misses == 0

    def test_hit_rate(self):
        manager = ReuseManager(SimulatedGPU())
        manager.store(0, np.ones(2, dtype=np.float32))
        manager.lookup(0)
        manager.lookup(1)
        assert manager.hit_rate() == pytest.approx(0.5)
