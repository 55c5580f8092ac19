"""Feature-cache integration: trainers, serving, oversized graphs, engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Engine, RunSpec, ServingSpec, TraceSpec
from repro.api.cli import read_preset
from repro.baselines import TrainerConfig
from repro.core.trainer import PiPADTrainer
from repro.gpu.device import OutOfMemoryError
from repro.memory import MemoryConfig
from repro.nn import build_model
from repro.serving import ServingConfig, synthesize_serving_trace
from repro.serving.scheduler import _build_serving_scheduler

#: multiplier pushing small_graph's frame features past the 16 GiB HBM
OVERSIZED_SCALE = 2.0e7


def _trainer(graph, *, memory=None, cost_scale=None, epochs=2):
    config = TrainerConfig(
        model="tgcn", frame_size=4, epochs=epochs, seed=0, cost_scale=cost_scale
    )
    return PiPADTrainer(graph, config, memory_config=memory)


class TestTrainingBitIdentity:
    def test_losses_identical_with_cache_on_and_off(self, small_graph):
        """The cache is byte accounting only: numerics must not notice it."""
        baseline = _trainer(small_graph).train()
        cached = _trainer(
            small_graph,
            memory=MemoryConfig(
                feature_cache=True, gpu_budget_mb=1.0, pinned_budget_mb=1.0,
                block_rows=16,
            ),
        ).train()
        assert [m.loss for m in cached.epoch_metrics] == [
            m.loss for m in baseline.epoch_metrics
        ]
        assert cached.final_loss == baseline.final_loss

    def test_cache_metrics_surface_only_when_enabled(self, small_graph):
        off = _trainer(small_graph).train()
        assert not any(k.startswith("feature_cache") for k in off.extras)
        on = _trainer(
            small_graph,
            memory=MemoryConfig(feature_cache=True, gpu_budget_mb=1.0, block_rows=16),
        ).train()
        assert on.extras["feature_cache_misses"] > 0
        assert 0.0 <= on.extras["feature_cache_hit_rate"] <= 1.0

    def test_cache_reduces_transfer_time_when_everything_fits(self, small_graph):
        """At 100% fit the steady epochs skip transfers and get faster."""
        baseline = _trainer(small_graph, epochs=3).train()
        cached = _trainer(
            small_graph,
            epochs=3,
            memory=MemoryConfig(feature_cache=True, gpu_budget_mb=64.0, block_rows=64),
        ).train()
        assert cached.extras["feature_cache_gpu_hits"] > 0
        assert cached.simulated_seconds <= baseline.simulated_seconds


class TestOversizedTraining:
    def test_uncached_oversized_frame_is_refused(self, small_graph):
        with pytest.raises(OutOfMemoryError, match="feature_cache=true"):
            _trainer(small_graph, cost_scale=OVERSIZED_SCALE)

    def test_cache_makes_the_oversized_frame_trainable(self, small_graph):
        memory = MemoryConfig(
            feature_cache=True, gpu_budget_mb=1024.0, pinned_budget_mb=700.0,
            block_rows=2,
        )
        result = _trainer(
            small_graph, cost_scale=OVERSIZED_SCALE, memory=memory, epochs=2
        ).train()
        assert np.isfinite(result.final_loss)
        assert result.extras["feature_cache_misses"] > 0
        # The overflow really went through the lower tiers.
        assert result.extras["feature_cache_spill_used_bytes"] > 0

    def test_oversized_losses_match_a_fitting_run(self, small_graph):
        """cost_scale only scales the simulated hardware costs: the cached
        oversized run must reproduce the fitting run's losses bit-for-bit."""
        fitting = _trainer(small_graph).train()
        oversized = _trainer(
            small_graph,
            cost_scale=OVERSIZED_SCALE,
            memory=MemoryConfig(feature_cache=True, gpu_budget_mb=1024.0, block_rows=2),
        ).train()
        assert [m.loss for m in oversized.epoch_metrics] == [
            m.loss for m in fitting.epoch_metrics
        ]


class TestGpuBudgetSweep:
    """The quick preset uncached and at GPU-tier budgets of 0, 1 and 64 MiB."""

    BUDGETS_MB = (0.0, 1.0, 64.0)

    @pytest.fixture(scope="class")
    def results(self):
        def train(memory):
            spec = RunSpec.from_dict({**read_preset("quick"), "memory": memory})
            return Engine.from_spec(spec).run().training

        results = {None: train({})}
        for budget in self.BUDGETS_MB:
            results[budget] = train({
                "feature_cache": True, "gpu_budget_mb": budget,
                "pinned_budget_mb": 1.0, "block_rows": 32,
            })
        return results

    def test_every_budget_trains_bit_identically(self, results):
        for budget in self.BUDGETS_MB:
            assert results[budget].loss_curve() == results[None].loss_curve()

    def test_full_fit_hits_the_gpu_tier_and_never_slows_the_epoch(self, results):
        full_fit, uncached = results[self.BUDGETS_MB[-1]], results[None]
        assert full_fit.extras["feature_cache_gpu_hits"] > 0
        assert full_fit.steady_epoch_seconds <= uncached.steady_epoch_seconds

    OVERSIZED = {**read_preset("train-oversized"), "num_snapshots": 8, "epochs": 2, "serving": None}

    def test_oversized_preset_trains_through_the_cache(self):
        result = Engine.from_spec(RunSpec.from_dict(self.OVERSIZED)).run().training
        assert np.isfinite(result.final_loss)

    def test_oversized_preset_is_refused_uncached(self):
        spec = RunSpec.from_dict({**self.OVERSIZED, "memory": {}})
        with pytest.raises(OutOfMemoryError):
            Engine.from_spec(spec).run()


def _serving(graph, *, memory=None, scale=1.0, **config_kwargs):
    defaults = dict(
        window=4, max_batch_requests=4, max_delay_ms=0.5, enable_reuse=False
    )
    defaults.update(config_kwargs)
    model = build_model("tgcn", graph.feature_dim, 8, seed=0)
    return _build_serving_scheduler(
        graph, model, ServingConfig(**defaults), scale=scale, memory=memory
    )


SERVING_MEMORY = MemoryConfig(
    feature_cache=True, gpu_budget_mb=1.0, pinned_budget_mb=1.0, block_rows=16
)


class TestServingCache:
    def test_predictions_identical_with_cache_on_and_off(self, small_graph):
        trace = synthesize_serving_trace(small_graph[-1], 40, seed=3)
        plain = _serving(small_graph)
        cached = _serving(small_graph, memory=SERVING_MEMORY)
        preds = {"plain": {}, "cached": {}}
        for name, engine in (("plain", plain), ("cached", cached)):
            for event in sorted(trace, key=lambda e: e.time):
                for result in engine.pump(event.time):
                    preds[name].update(result.predictions)
                if event.kind == "delta":
                    engine.ingest(event.delta, at=event.time)
                else:
                    engine.submit(event.node_ids, at=event.time)
            for result in engine.pump(None, force=True):
                preds[name].update(result.predictions)
        assert preds["plain"].keys() == preds["cached"].keys()
        for rid, rows in preds["plain"].items():
            np.testing.assert_array_equal(rows, preds["cached"][rid])
        stats = cached.feature_cache.stats()
        assert stats["feature_cache_misses"] > 0
        assert stats["feature_cache_invalidations"] > 0

    def test_delta_invalidates_rows_raced_by_inflight_prefetch(self, small_graph):
        """A delta landing while a batch's prefetch is still in flight on the
        simulated timeline must drop the touched blocks: the next access
        re-misses instead of serving stale residency."""
        engine = _serving(small_graph, memory=SERVING_MEMORY)
        trace = synthesize_serving_trace(small_graph[-1], 40, seed=3)
        delta = next(e.delta for e in trace if e.kind == "delta")
        engine.submit(range(small_graph.num_nodes), at=0.0)
        results = engine.pump(0.0, force=True)
        assert results, "batch must have executed (prefetch scheduled)"
        populated = sum(len(t.entries) for t in engine.feature_cache.tiers.values())
        assert populated > 0
        # The batch completes later on the simulated clock; the delta lands
        # *before* that completion time — racing the in-flight transfer.
        assert results[0].completion_time > 0.0
        report = engine.ingest(delta, at=0.0)
        touched_blocks = {
            int(r) // SERVING_MEMORY.block_rows for r in report.touched_rows
        }
        stats = engine.feature_cache.stats()
        assert stats["feature_cache_invalidations"] == len(touched_blocks)
        for block in touched_blocks:
            assert block not in engine.feature_cache
        # Re-accessing the invalidated rows is a miss, never a stale hit.
        before = engine.feature_cache.counters["misses"]
        engine.submit(range(small_graph.num_nodes), at=1.0)
        engine.pump(1.0, force=True)
        assert engine.feature_cache.counters["misses"] >= before + len(touched_blocks)

    def test_uncached_oversized_window_is_refused(self, small_graph):
        with pytest.raises(OutOfMemoryError, match="feature_cache=true"):
            _serving(small_graph, scale=OVERSIZED_SCALE)

    def test_cache_makes_the_oversized_window_servable(self, small_graph):
        engine = _serving(
            small_graph,
            scale=OVERSIZED_SCALE,
            memory=MemoryConfig(
                feature_cache=True, gpu_budget_mb=1024.0, block_rows=2
            ),
        )
        engine.submit([0, 1, 2], at=0.0)
        results = engine.pump(0.0, force=True)
        assert len(results) == 1
        report = engine.report()
        assert report.extras["feature_cache_misses"] > 0


class TestEngineEndToEnd:
    @pytest.fixture(scope="class")
    def oversized_report(self):
        spec = RunSpec(
            dataset="covid19_england",
            model="tgcn",
            method="pipad",
            num_snapshots=8,
            frame_size=4,
            epochs=2,
            cost_scale=5.0e7,
            memory=MemoryConfig(
                feature_cache=True, gpu_budget_mb=1024.0, pinned_budget_mb=700.0,
                block_rows=16,
            ),
            serving=ServingSpec(
                kind="local",
                window=4,
                max_batch_requests=4,
                max_delay_ms=0.5,
                trace=TraceSpec(num_events=30, seed=5),
            ),
        )
        return Engine.from_spec(spec).run()

    def test_oversized_spec_trains_and_serves(self, oversized_report):
        report = oversized_report
        assert np.isfinite(report.training.final_loss)
        assert report.serving.metrics.num_requests > 0

    def test_cache_metrics_reach_run_report_metrics(self, oversized_report):
        metrics = oversized_report.metrics
        assert metrics["train.extras.feature_cache_misses"] > 0
        assert "train.extras.feature_cache_hit_rate" in metrics
        assert metrics["serving.extras.feature_cache_misses"] > 0

    def test_cache_spans_reach_the_trace(self, oversized_report, tmp_path):
        spec = oversized_report.spec.replace(
            telemetry=oversized_report.spec.telemetry.replace(
                trace_path=str(tmp_path / "trace.json")
            )
        )
        engine = Engine.from_spec(spec)
        report = engine.run()
        engine.export_artifacts(report)
        trace = (tmp_path / "trace.json").read_text()
        assert "cache_" in trace


class TestPinnedStagingClamp:
    """A pinned tier smaller than one staging block is a valid spec:
    ``reserve_staging`` clamps each buffer to the tier and streams the rest
    through bounce buffers, so simulated time and numerics do not move."""

    @staticmethod
    def _cached_run(pinned_budget_mb):
        spec = RunSpec(
            dataset="flickr",
            model="tgcn",
            method="pipad",
            num_snapshots=6,
            frame_size=4,
            epochs=3,
            cost_scale=150000.0,
            memory=MemoryConfig(
                feature_cache=True,
                gpu_budget_mb=2048.0,
                pinned_budget_mb=pinned_budget_mb,
                block_rows=64,
            ),
            analysis={"enabled": True},
        )
        return Engine.from_spec(spec).run()

    def test_tiny_pinned_tier_runs_clean_and_unchanged(self):
        tiny_mb = 1e-4
        tiny = self._cached_run(tiny_mb)
        reference = self._cached_run(1024.0)
        capacity = int(tiny_mb * 1024 * 1024)
        depth = tiny.spec.data.prefetch_depth
        # Below even one block of single-column float32 rows per buffer.
        assert capacity < (depth + 1) * tiny.spec.memory.block_rows * 4
        assert tiny.extras["analysis"]["num_violations"] == 0
        extras = tiny.training.extras
        assert extras["feature_cache_pinned_capacity_bytes"] == capacity
        assert 0 < extras["feature_cache_peak_pinned_bytes"] <= capacity
        for field in ("steady_epoch_seconds", "final_loss"):
            assert getattr(tiny.training, field).hex() == getattr(
                reference.training, field
            ).hex()
