"""Tests for the baseline trainers, the PiPAD trainer and the results records."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registries import trainer_registry
from repro.baselines import (
    PyGTAsyncTrainer,
    PyGTGeSpMMTrainer,
    PyGTReuseTrainer,
    PyGTTrainer,
    TrainerConfig,
    TrainingResult,
)
from repro.core import PiPADConfig, PiPADTrainer
from repro.kernels import GESpMMAggregation, PyGCOOAggregation
from repro.nn import AggregationProvider, SnapshotKernels


class TestTrainerConfig:
    def test_defaults_valid(self):
        TrainerConfig()

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(frame_size=0)


class TestBaselineTrainers:
    def test_pygt_trains_and_reports(self, small_graph, trainer_config):
        result = PyGTTrainer(small_graph, trainer_config).train()
        assert isinstance(result, TrainingResult)
        assert result.method == "PyGT"
        assert result.simulated_seconds > 0
        assert result.epochs == trainer_config.epochs
        assert len(result.epoch_metrics) == trainer_config.epochs
        assert np.isfinite(result.final_loss)
        assert 0.0 < result.gpu_utilization <= 1.0
        assert result.kernel_launches > 0

    def test_flag_matrix(self):
        assert PyGTTrainer.async_transfer is False and PyGTTrainer.use_reuse is False
        assert PyGTAsyncTrainer.async_transfer is True
        assert PyGTReuseTrainer.use_reuse is True
        assert PyGTReuseTrainer.kernel is PyGCOOAggregation
        assert PyGTGeSpMMTrainer.kernel is GESpMMAggregation

    def test_reuse_reduces_steady_state_time(self, small_graph, trainer_config):
        async_result = PyGTAsyncTrainer(small_graph, trainer_config).train()
        reuse_result = PyGTReuseTrainer(small_graph, trainer_config).train()
        assert reuse_result.steady_epoch_seconds <= async_result.steady_epoch_seconds * 1.01

    def test_all_methods_same_loss(self, small_graph, trainer_config):
        """All execution strategies compute the same math, so losses agree."""
        losses = {}
        registry = trainer_registry()
        for method in ("pygt", "pygt-a", "pygt-r", "pygt-g"):
            losses[method] = registry[method](small_graph, trainer_config).train().final_loss
        reference = losses["pygt"]
        for method, loss in losses.items():
            assert loss == pytest.approx(reference, rel=1e-3), method

    def test_evaluate_returns_finite_mse(self, small_graph, trainer_config):
        trainer = PyGTTrainer(small_graph, trainer_config)
        trainer.train(epochs=1)
        assert np.isfinite(trainer.evaluate())

    @pytest.mark.parametrize("trainer_cls", [PyGTTrainer, PyGTGeSpMMTrainer])
    def test_snapshot_kernels_built_once_per_run(self, small_graph, trainer_config, trainer_cls):
        seen = {}

        class Recording(trainer_cls):
            def _make_provider(self, snapshots):
                provider = super()._make_provider(snapshots)
                (snapshot,) = snapshots
                seen.setdefault(snapshot.timestep, []).append(provider.kernels)
                return provider

        trainer = Recording(small_graph, trainer_config)
        trainer.train(epochs=2)
        trainer.evaluate()
        assert set(seen) == {s.timestep for s in small_graph.snapshots}
        for timestep, sets in seen.items():
            assert len(sets) >= 2, timestep
            assert all(k is sets[0] for k in sets), timestep
            assert isinstance(sets[0], SnapshotKernels)
            assert type(sets[0].exclusive(0)) is trainer_cls.kernel
        # The run's one memo holds exactly those sets, one per snapshot.
        assert {id(k) for k in trainer._kernel_sets.values()} == {
            id(sets[0]) for sets in seen.values()
        }

    @pytest.mark.parametrize("trainer_cls", [PyGTReuseTrainer, PyGTGeSpMMTrainer])
    def test_reuse_cache_counts_exactly_the_first_layer_lookups(
        self, small_graph, trainer_config, trainer_cls, monkeypatch
    ):
        first_layer = []
        aggregate = AggregationProvider.aggregate_many

        def counting(provider, layer, xs):
            if layer == 0:
                first_layer.append(len(xs))
            return aggregate(provider, layer, xs)

        monkeypatch.setattr(AggregationProvider, "aggregate_many", counting)
        trainer = trainer_cls(small_graph, trainer_config)
        trainer.train(epochs=2)
        reuse = trainer.reuse
        assert reuse.cpu_hits + reuse.gpu_hits + reuse.misses == sum(first_layer)
        # Each snapshot misses once, in the first frame that holds it.
        assert reuse.misses == len(small_graph.snapshots)

    @pytest.mark.parametrize("trainer_cls", [PyGTTrainer, PyGTAsyncTrainer])
    def test_trainers_without_reuse_keep_a_disabled_cache(
        self, small_graph, trainer_config, trainer_cls
    ):
        trainer = trainer_cls(small_graph, trainer_config)
        trainer.train(epochs=1)
        assert not trainer.reuse.enabled
        assert set(trainer.reuse.stats().values()) == {0.0}

    def test_custom_cost_scale_respected(self, small_graph):
        config = TrainerConfig(model="tgcn", frame_size=4, epochs=1, cost_scale=50.0)
        trainer = PyGTTrainer(small_graph, config)
        assert trainer.scale == 50.0

    def test_sync_transfer_slower_than_async(self, small_graph):
        config = TrainerConfig(model="tgcn", frame_size=4, epochs=2, cost_scale=500.0)
        sync = PyGTTrainer(small_graph, config).train()
        async_ = PyGTAsyncTrainer(small_graph, config).train()
        assert async_.steady_epoch_seconds < sync.steady_epoch_seconds


class TestPiPADTrainer:
    def test_trains_and_matches_baseline_loss(self, small_graph, trainer_config):
        baseline = PyGTTrainer(small_graph, trainer_config).train()
        pipad = PiPADTrainer(small_graph, trainer_config, PiPADConfig(preparing_epochs=1)).train()
        assert pipad.final_loss == pytest.approx(baseline.final_loss, rel=1e-3)
        assert pipad.method == "PiPAD"

    def test_faster_than_pygt_in_steady_state(self, small_graph):
        config = TrainerConfig(model="tgcn", frame_size=4, epochs=3, cost_scale=200.0)
        baseline = PyGTTrainer(small_graph, config).train()
        pipad = PiPADTrainer(small_graph, config, PiPADConfig(preparing_epochs=1)).train()
        assert pipad.steady_epoch_seconds < baseline.steady_epoch_seconds

    def test_tuner_decisions_recorded(self, small_graph, trainer_config):
        trainer = PiPADTrainer(small_graph, trainer_config, PiPADConfig(preparing_epochs=1))
        trainer.train()
        decisions = trainer.tuning_decisions
        assert len(decisions) == trainer.frames.num_frames
        assert all(d.s_per >= 1 for d in decisions)
        assert set(trainer.chosen_s_per()) == {f.index for f in trainer.frames}

    def test_fixed_s_per_respected(self, small_graph, trainer_config):
        trainer = PiPADTrainer(
            small_graph, trainer_config, PiPADConfig(preparing_epochs=1, fixed_s_per=2)
        )
        trainer.train()
        assert set(trainer.chosen_s_per().values()) == {2}

    def test_max_s_per_metadata_caps_candidates(self, small_graph, trainer_config):
        small_graph.metadata["max_s_per"] = 2
        try:
            trainer = PiPADTrainer(small_graph, trainer_config, PiPADConfig(preparing_epochs=1))
            assert max(trainer.tuner.candidates) <= 2
        finally:
            small_graph.metadata.pop("max_s_per")

    def test_reuse_statistics_reported(self, small_graph, trainer_config):
        result = PiPADTrainer(
            small_graph, trainer_config, PiPADConfig(preparing_epochs=1)
        ).train()
        assert result.extras.get("cpu_hits", 0) + result.extras.get("gpu_hits", 0) > 0
        assert "mean_s_per" in result.extras

    def test_reuse_can_be_disabled(self, small_graph, trainer_config):
        trainer = PiPADTrainer(
            small_graph,
            trainer_config,
            PiPADConfig(preparing_epochs=1, enable_inter_frame_reuse=False),
        )
        result = trainer.train()
        assert not trainer.reuse.enabled
        assert trainer.reuse.stats()["cpu_cached_snapshots"] == 0
        assert "cpu_hits" not in result.extras

    def test_ablations_do_not_change_numerics(self, small_graph, trainer_config):
        reference = PiPADTrainer(
            small_graph, trainer_config, PiPADConfig(preparing_epochs=1)
        ).train()
        for ablated in (
            PiPADConfig(preparing_epochs=1, enable_weight_reuse=False),
            PiPADConfig(preparing_epochs=1, use_sliced_csr=False),
            PiPADConfig(preparing_epochs=1, enable_pipeline=False),
            PiPADConfig(preparing_epochs=1, enable_inter_frame_reuse=False),
        ):
            result = PiPADTrainer(small_graph, trainer_config, ablated).train()
            assert result.final_loss == pytest.approx(reference.final_loss, rel=1e-3)

    def test_pipeline_ablation_is_slower(self, small_graph):
        config = TrainerConfig(model="tgcn", frame_size=4, epochs=3, cost_scale=500.0)
        piped = PiPADTrainer(small_graph, config, PiPADConfig(preparing_epochs=1)).train()
        serial = PiPADTrainer(
            small_graph, config, PiPADConfig(preparing_epochs=1, enable_pipeline=False)
        ).train()
        assert serial.steady_epoch_seconds >= piped.steady_epoch_seconds

    def test_zero_preparing_epochs_supported(self, small_graph, trainer_config):
        result = PiPADTrainer(
            small_graph, trainer_config, PiPADConfig(preparing_epochs=0)
        ).train(epochs=1)
        assert result.simulated_seconds > 0


class TestResults:
    def test_speedup_and_steady_state(self, small_graph, trainer_config):
        result = PyGTTrainer(small_graph, trainer_config).train()
        assert result.speedup_over(result) == pytest.approx(1.0)
        assert result.steady_epoch_seconds > 0
        assert result.per_epoch_seconds == pytest.approx(
            result.simulated_seconds / result.epochs
        )
        assert len(result.loss_curve()) == result.epochs
