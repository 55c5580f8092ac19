"""Tests for the data-parallel trainer and the sharded serving entry point."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import TrainerConfig
from repro.core import (
    DistributedTrainer,
    GroupConfig,
    PiPADConfig,
    PiPADTrainer,
)
from repro.distributed import build_sharded_serving_engine
from repro.nn import build_model
from repro.serving import synthesize_serving_trace


@pytest.fixture()
def dist_trainer_config():
    return TrainerConfig(model="tgcn", frame_size=4, epochs=3, cost_scale=2000.0, seed=0)


class TestDistributedTrainer:
    def test_numerics_identical_to_single_device(self, small_graph, trainer_config):
        """Sharding only changes the timing model, never the math."""
        single = PiPADTrainer(
            small_graph, trainer_config, PiPADConfig(preparing_epochs=1)
        ).train()
        sharded = DistributedTrainer(
            small_graph,
            trainer_config,
            PiPADConfig(preparing_epochs=1),
            GroupConfig(num_devices=4),
        ).train()
        assert sharded.final_loss == single.final_loss
        assert sharded.method == "PiPAD-DP"

    def test_four_devices_beat_one(self, small_graph, dist_trainer_config):
        results = {}
        for devices in (1, 4):
            results[devices] = DistributedTrainer(
                small_graph,
                dist_trainer_config,
                PiPADConfig(preparing_epochs=1),
                GroupConfig(num_devices=devices),
            ).train()
        assert (
            results[4].steady_epoch_seconds < results[1].steady_epoch_seconds
        )

    def test_collectives_reported(self, small_graph, dist_trainer_config):
        result = DistributedTrainer(
            small_graph,
            dist_trainer_config,
            PiPADConfig(preparing_epochs=1),
            GroupConfig(num_devices=2),
        ).train()
        assert result.extras["num_devices"] == 2.0
        assert result.extras["all_reduce_seconds"] > 0
        assert result.extras["halo_exchange_seconds"] > 0
        assert result.extras["all_gather_seconds"] > 0
        assert result.breakdown["collective_all_reduce"] > 0

    def test_single_device_has_no_collectives(self, small_graph, trainer_config):
        result = DistributedTrainer(
            small_graph,
            trainer_config,
            PiPADConfig(preparing_epochs=1),
            GroupConfig(num_devices=1),
        ).train()
        assert "all_reduce_seconds" not in result.extras
        assert result.extras["halo_feature_bytes"] == 0.0

    def test_result_aggregates_cover_the_whole_group(self, small_graph, dist_trainer_config):
        """Regression: category/launch/memory counters reported only the lead
        device's ~1/K shard while breakdown summed all devices."""
        trainer = DistributedTrainer(
            small_graph,
            dist_trainer_config,
            PiPADConfig(preparing_epochs=1),
            GroupConfig(num_devices=4),
        )
        result = trainer.train()
        expected_category = {}
        for device in trainer.group:
            for cat, seconds in device.category_seconds().items():
                expected_category[cat] = expected_category.get(cat, 0.0) + seconds
        assert result.category_seconds == pytest.approx(expected_category)
        assert result.kernel_launches == sum(
            s.launches for d in trainer.group for s in d.kernel_stats.values()
        )
        assert result.peak_memory_bytes == max(d.peak_bytes for d in trainer.group)
        # Group totals strictly exceed the lead-only view in steady state.
        assert sum(result.category_seconds.values()) > sum(
            trainer.device.category_seconds().values()
        )

    def test_makespan_covers_every_device(self, small_graph, dist_trainer_config):
        trainer = DistributedTrainer(
            small_graph,
            dist_trainer_config,
            PiPADConfig(preparing_epochs=1),
            GroupConfig(num_devices=3),
        )
        result = trainer.train()
        assert result.simulated_seconds == pytest.approx(trainer.group.makespan())
        # Collectives keep the devices synchronized through the end of training.
        for device in trainer.group:
            assert device.elapsed_seconds() <= result.simulated_seconds

    def test_replanning_balances_dense_work(self, small_graph, dist_trainer_config):
        trainer = DistributedTrainer(
            small_graph,
            dist_trainer_config,
            PiPADConfig(preparing_epochs=1),
            GroupConfig(num_devices=4),
        )
        trainer.train()
        # TGCN is RNN/update dominated, so the calibrated plan must not give
        # any shard a wildly disproportionate share of the node set.
        assert trainer._node_fractions.max() < 0.5

    def test_pcie_interconnect_slower_than_nvlink(self, small_graph, dist_trainer_config):
        times = {}
        for kind in ("nvlink", "pcie"):
            times[kind] = DistributedTrainer(
                small_graph,
                dist_trainer_config,
                PiPADConfig(preparing_epochs=1),
                GroupConfig(num_devices=4, interconnect=kind),
            ).train().steady_epoch_seconds
        assert times["nvlink"] <= times["pcie"]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GroupConfig(num_devices=0)

    def test_scaling_experiment_requires_single_device_reference(self):
        from repro.experiments import scaling_multi_gpu, scaling_pipeline

        # speedup and efficiency are relative to the one-device run
        assert scaling_multi_gpu.DEVICE_COUNTS[0] == 1
        assert scaling_pipeline.DEVICE_COUNTS[0] == 1


class TestShardedServing:
    def make_engine(self, graph, num_shards):
        model = build_model("tgcn", graph.feature_dim, 8, seed=0)
        return build_sharded_serving_engine(graph, model, num_shards)

    def test_requests_conserved_across_shards(self, small_graph):
        engine = self.make_engine(small_graph, 3)
        trace = synthesize_serving_trace(small_graph[-1], 60, seed=4)
        report = engine.run_trace(trace)
        num_requests = sum(1 for e in trace if e.kind == "request")
        assert report.metrics.num_requests == num_requests
        shard_counts = [
            report.extras[f"shard{i}_requests"] for i in range(engine.num_shards)
        ]
        assert sum(shard_counts) == num_requests
        # Round-robin routing spreads the load.
        assert max(shard_counts) - min(shard_counts) <= 1

    def test_deltas_broadcast_to_every_shard(self, small_graph):
        engine = self.make_engine(small_graph, 2)
        trace = synthesize_serving_trace(small_graph[-1], 40, seed=7)
        report = engine.run_trace(trace)
        num_deltas = sum(1 for e in trace if e.kind == "delta")
        assert report.metrics.deltas_ingested == num_deltas
        versions = {tuple(r.store.window_versions()) for r in engine.replicas}
        assert len(versions) == 1  # all shards serve the same head state

    def test_replicas_share_one_store_applied_once_per_delta(self, small_graph):
        engine = self.make_engine(small_graph, 3)
        assert all(replica.store is engine.store for replica in engine.replicas)
        deltas = [
            e.delta
            for e in synthesize_serving_trace(small_graph[-1], 40, seed=7)
            if e.kind == "delta"
        ][:3]
        for delta in deltas:
            report = engine.ingest(delta, at=0.0)
            assert report.version == engine.store.window_versions()[-1]
        assert engine.store.deltas_applied == len(deltas)
        # Every replica absorbed every delta: caches and counters follow.
        assert [r.metrics.deltas_ingested for r in engine.replicas] == [len(deltas)] * 3

    def test_routing_is_round_robin(self, small_graph):
        engine = self.make_engine(small_graph, 2)
        first = engine.submit([0, 1], at=0.0)
        second = engine.submit([2], at=0.0)
        engine.pump(0.0, force=True)
        served = [[r.request_id for r in replica.metrics.requests] for replica in engine.replicas]
        assert served == [[first], [second]]

    def test_pump_results_keyed_by_global_request_ids(self, small_graph):
        """Regression: shard-local ids collide across shards; the ids submit
        hands out must be the ones pump results and the report use."""
        engine = self.make_engine(small_graph, 2)
        ids = [engine.submit([i], at=0.0) for i in range(4)]
        assert ids == [0, 1, 2, 3]  # shard-locally these are (0,0),(1,0),(0,1),(1,1)
        results = engine.pump(0.0, force=True)
        predicted = set()
        for result in results:
            predicted.update(result.predictions)
        assert predicted == set(ids)
        # Batch ids are unique across shards too (same offset as the report).
        assert len({r.batch_id for r in results}) == len(results)
        report = engine.report()
        assert sorted(r.request_id for r in report.metrics.requests) == ids
        assert {r.batch_id for r in report.metrics.requests} <= {
            r.batch_id for r in results
        }

    def test_replicas_draw_ids_from_one_counter(self, small_graph):
        """Even a request submitted to a replica directly gets an id no
        other replica holds."""
        engine = self.make_engine(small_graph, 2)
        first = engine.submit([0], at=0.0)
        direct = engine.replicas[0].submit([1], at=0.0)
        last = engine.submit([2], at=0.0)
        assert (first, direct, last) == (0, 1, 2)
        results = engine.pump(0.0, force=True)
        predicted = [rid for result in results for rid in result.predictions]
        assert sorted(predicted) == [0, 1, 2]

    def test_merged_breakdown_does_not_sum_makespans(self, small_graph):
        """Regression: summing K shard makespans ~Kx-inflated the clock."""
        engine = self.make_engine(small_graph, 3)
        trace = synthesize_serving_trace(small_graph[-1], 40, seed=3)
        report = engine.run_trace(trace)
        shard_makespans = [r.device.elapsed_seconds() for r in engine.replicas]
        assert report.breakdown["makespan"] == pytest.approx(max(shard_makespans))
        assert report.simulated_seconds == pytest.approx(max(shard_makespans))
        # Utilization is a ratio: merged as the mean across shards, never summed.
        shard_utils = [r.report().breakdown["gpu_utilization"] for r in engine.replicas]
        assert report.breakdown["gpu_utilization"] == pytest.approx(np.mean(shard_utils))
        assert report.breakdown["gpu_utilization"] <= 1.0
        # Kind-seconds remain additive across the shards.
        assert report.breakdown["h2d"] == pytest.approx(
            sum(r.device.breakdown().get("h2d", 0.0) for r in engine.replicas)
        )

    def test_sharding_reduces_latency_under_load(self, small_graph):
        """With batches expensive enough to saturate one device, spreading
        the traffic over shards must cut the queueing latency."""
        from repro.serving import ServingConfig

        trace = synthesize_serving_trace(
            small_graph[-1], 80, seed=11, mean_interarrival_ms=0.05
        )
        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        config = ServingConfig(window=4, max_batch_requests=2, max_delay_ms=0.05)
        one = build_sharded_serving_engine(
            small_graph, model, 1, config, scale=500.0
        ).run_trace(trace)
        four = build_sharded_serving_engine(
            small_graph, model, 4, config, scale=500.0
        ).run_trace(trace)
        assert four.metrics.mean_latency < one.metrics.mean_latency

    def test_merged_report_shape(self, small_graph):
        engine = self.make_engine(small_graph, 2)
        trace = synthesize_serving_trace(small_graph[-1], 30, seed=5)
        report = engine.run_trace(trace)
        assert report.engine.endswith("-x2")
        assert report.dataset == small_graph.name
        assert report.extras["num_shards"] == 2.0
        assert report.simulated_seconds == max(
            r.device.elapsed_seconds() for r in engine.replicas
        )
        assert np.isfinite(report.metrics.summary()["p50_latency_ms"])

    def test_zero_shards_rejected(self, small_graph):
        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        with pytest.raises(ValueError):
            build_sharded_serving_engine(small_graph, model, 0)


class TestReportMergeBugfixes:
    """Regressions for the sharded report-merge semantics.

    ``deltas_ingested`` and ``rows_touched`` must aggregate as the
    *logical* per-delta counts, reuse-stat gauges as means, and the wall
    clock must start at first traffic, not at engine construction.
    """

    def make_engine(self, graph, num_shards):
        model = build_model("tgcn", graph.feature_dim, 8, seed=0)
        return build_sharded_serving_engine(graph, model, num_shards)

    def deltas_from_trace(self, graph, seed=7):
        trace = synthesize_serving_trace(graph[-1], 40, seed=seed)
        return [e.delta for e in trace if e.kind == "delta"]

    def test_rows_per_delta_is_the_mean_rows_one_delta_touched(self, small_graph):
        """Pinned: report() used to sum rows_touched over the replicas, so
        rows_per_delta counted each delta's rows once per replica."""

        engine = self.make_engine(small_graph, 3)
        applied = []
        apply = engine.store.apply

        def recording_apply(delta):
            applied.append(apply(delta))
            return applied[-1]

        engine.store.apply = recording_apply
        report = engine.run_trace(synthesize_serving_trace(small_graph[-1], 40, seed=7))
        touched = [delta.num_touched for delta in applied]
        merged = report.metrics
        assert merged.rows_touched == sum(touched) > 0
        assert merged.rows_per_delta() == sum(touched) / len(touched)
        # One record per applied delta, at the time it was ingested.
        assert [(d.version, d.num_touched) for d in merged.deltas] == [
            (delta.version, delta.num_touched) for delta in applied
        ]
        # The replicas' own cache patch work still adds up.
        patched = [r.session.rows_patched for r in engine.replicas]
        assert report.reuse_stats["rows_patched"] == sum(patched) > max(patched)

    def test_deltas_ingested_counts_logical_deltas(self, small_graph):
        engine = self.make_engine(small_graph, 3)
        for delta in self.deltas_from_trace(small_graph)[:3]:
            engine.ingest(delta, at=0.0)
        # Each broadcast lands on all 3 replicas but is ONE logical delta.
        assert engine.report().metrics.deltas_ingested == 3

    def test_delta_record_is_stamped_on_the_engine_clock(self, small_graph):
        """An unstamped delta is recorded once, at the engine's time (the
        busiest replica's clock), not at the first replica's."""
        engine = self.make_engine(small_graph, 2)
        engine.replicas[1].submit([0], at=0.0)
        engine.pump(0.0, force=True)
        now = engine.replicas[1].device.elapsed_seconds()
        assert now > engine.replicas[0].device.elapsed_seconds()
        report = engine.ingest(self.deltas_from_trace(small_graph)[0])
        (record,) = engine.report().metrics.deltas
        assert (record.version, record.num_touched, record.time) == (
            report.version, report.num_touched, now,
        )

    def test_reuse_gauges_average_while_counters_sum(self, small_graph):
        engine = self.make_engine(small_graph, 2)
        trace = synthesize_serving_trace(small_graph[-1], 40, seed=9)
        report = engine.run_trace(trace)
        stats = [r.session.stats() for r in engine.replicas]
        # Gauges (point-in-time sizes) merge as the mean across replicas...
        for key in ("cpu_cached_snapshots", "gpu_resident_snapshots", "gpu_buffer_bytes"):
            assert report.reuse_stats[key] == pytest.approx(
                np.mean([s[key] for s in stats])
            )
        # ...while event counters keep summing fleet-wide.
        for key in ("cpu_hits", "gpu_hits", "misses", "rows_patched"):
            assert report.reuse_stats[key] == pytest.approx(
                sum(s[key] for s in stats)
            )

    def test_wall_clock_starts_at_first_traffic(self, small_graph):
        import time as _time

        from repro.serving import ServingConfig
        from repro.serving.scheduler import _build_serving_scheduler

        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        single = _build_serving_scheduler(
            small_graph, model, ServingConfig(window=4)
        )
        sharded = self.make_engine(small_graph, 2)
        # Idle engines report zero host wall time, however old they are.
        assert single.report().wall_seconds == 0.0
        assert sharded.report().wall_seconds == 0.0
        # Time spent between construction and first traffic is excluded.
        pause = 0.2
        _time.sleep(pause)
        for engine in (single, sharded):
            engine.submit([0], at=0.0)
            engine.pump(0.0, force=True)
            assert 0.0 < engine.report().wall_seconds < pause
