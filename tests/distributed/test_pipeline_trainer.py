"""Tests for frame-pipeline training across a simulated device group."""

from __future__ import annotations

import pytest

from repro.baselines import TrainerConfig
from repro.core import GroupConfig, PiPADConfig, PiPADTrainer, PipelineTrainer


def _config(model: str = "tgcn") -> TrainerConfig:
    return TrainerConfig(model=model, frame_size=4, epochs=3)


def _pipad() -> PiPADConfig:
    return PiPADConfig(preparing_epochs=1, fixed_s_per=2)


class TestGroupConfig:
    def test_defaults_validate(self):
        config = GroupConfig()
        assert config.num_devices == 1
        assert config.schedule == "round_robin"

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            GroupConfig(num_devices=0)
        with pytest.raises(ValueError):
            GroupConfig(schedule="random")


class TestNumerics:
    @pytest.mark.parametrize("model", ["tgcn", "evolvegcn", "mpnn_lstm"])
    def test_losses_bit_identical_to_single_device(self, small_graph, model):
        """Acceptance invariant: pipelining changes when work runs, never
        what is computed — every model trains bit-identically to plain PiPAD."""
        single = PiPADTrainer(small_graph, _config(model), _pipad()).train()
        pipelined = PipelineTrainer(
            small_graph,
            _config(model),
            _pipad(),
            GroupConfig(num_devices=3),
        ).train()
        assert pipelined.loss_curve() == single.loss_curve()
        assert pipelined.final_loss == single.final_loss

    def test_schedule_does_not_change_numerics(self, small_graph):
        losses = {}
        for schedule in ("round_robin", "blocked"):
            trainer = PipelineTrainer(
                small_graph,
                _config(),
                _pipad(),
                GroupConfig(num_devices=2, schedule=schedule),
            )
            losses[schedule] = trainer.train().loss_curve()
        assert losses["round_robin"] == losses["blocked"]

    def test_single_stage_degenerates_to_plain_pipad(self, small_graph):
        single = PiPADTrainer(small_graph, _config(), _pipad()).train()
        one_stage = PipelineTrainer(
            small_graph, _config(), _pipad(), GroupConfig(num_devices=1)
        ).train()
        assert one_stage.loss_curve() == single.loss_curve()
        assert one_stage.simulated_seconds == pytest.approx(single.simulated_seconds)
        assert one_stage.extras["pipeline_bubble_seconds"] == 0.0
        assert "peer_transfer_seconds" not in one_stage.extras


class TestSchedule:
    def test_pipelining_speeds_up_steady_epochs(self, small_graph):
        """On a workload big enough that kernels dominate the link latency,
        pipelining the frame across stages beats the single device."""
        config = TrainerConfig(
            model="evolvegcn", frame_size=4, epochs=3, cost_scale=2000.0
        )
        single = PiPADTrainer(small_graph, config, _pipad()).train()
        pipelined = PipelineTrainer(
            small_graph, config, _pipad(), GroupConfig(num_devices=2)
        ).train()
        assert pipelined.steady_epoch_seconds < single.steady_epoch_seconds

    def test_multi_stage_run_itemizes_pipeline_costs(self, small_graph):
        trainer = PipelineTrainer(
            small_graph, _config(), _pipad(), GroupConfig(num_devices=2)
        )
        result = trainer.train()
        assert result.extras["num_devices"] == 2.0
        assert result.extras["peer_transfer_seconds"] > 0
        assert result.extras["all_reduce_seconds"] > 0
        assert result.extras["pipeline_bubble_seconds"] > 0
        # No node sharding in the pipeline topology: no halo traffic.
        assert "halo_exchange_seconds" not in result.extras

    def test_work_lands_on_every_stage(self, small_graph):
        trainer = PipelineTrainer(
            small_graph, _config(), _pipad(), GroupConfig(num_devices=2)
        )
        trainer.train()
        for device in trainer.group:
            kinds = {op.kind for op in device.timeline.ops}
            assert "kernel" in kinds and "h2d" in kinds

    def test_preparing_epochs_stay_on_the_lead_device(self, small_graph):
        trainer = PipelineTrainer(
            small_graph,
            _config(),
            PiPADConfig(preparing_epochs=1, fixed_s_per=2),
            GroupConfig(num_devices=3),
        )
        trainer.run_epoch(0)  # preparing epoch
        assert trainer.group.devices[1].timeline.ops == []
        assert trainer.group.devices[2].timeline.ops == []

    def test_group_makespan_is_the_result_clock(self, small_graph):
        trainer = PipelineTrainer(
            small_graph, _config(), _pipad(), GroupConfig(num_devices=2)
        )
        result = trainer.train()
        assert result.simulated_seconds == pytest.approx(trainer.group.makespan())

    def test_deterministic_across_runs(self, small_graph):
        def run():
            return PipelineTrainer(
                small_graph, _config(), _pipad(), GroupConfig(num_devices=2)
            ).train()

        first, second = run(), run()
        assert first.simulated_seconds == second.simulated_seconds
        assert first.loss_curve() == second.loss_curve()
        assert first.extras["pipeline_bubble_seconds"] == pytest.approx(
            second.extras["pipeline_bubble_seconds"]
        )
