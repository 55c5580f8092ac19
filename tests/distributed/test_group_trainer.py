"""The shared group-trainer base: config validation and the one-device limit."""

from __future__ import annotations

import pytest

import repro.api
from repro.baselines import TrainerConfig
from repro.core import (
    DistributedTrainer,
    GroupConfig,
    PiPADConfig,
    PiPADTrainer,
    PipelineTrainer,
)
from repro.gpu.interconnect import INTERCONNECT_KINDS
from repro.memory import MemoryConfig

#: GPU/pinned budgets small enough that the small graph's feature blocks hit
#: all three cache tiers
_CACHED = MemoryConfig(
    feature_cache=True, gpu_budget_mb=0.0005, pinned_budget_mb=0.004, block_rows=8
)


class TestConfigValidation:
    def test_interconnect_kinds_have_one_definition(self):
        assert repro.api.INTERCONNECT_KINDS is INTERCONNECT_KINDS
        assert set(INTERCONNECT_KINDS) == {"nvlink", "pcie"}

    @pytest.mark.parametrize("config_cls", [GroupConfig, repro.api.DeviceSpec])
    def test_unknown_interconnect_rejected_at_construction(self, config_cls):
        with pytest.raises(ValueError, match="interconnect 'bogus'.*nvlink"):
            config_cls(interconnect="bogus")


class TestOneDeviceGroup:
    @pytest.mark.parametrize(
        "memory", [MemoryConfig(), _CACHED], ids=["cache-off", "cache-on"]
    )
    @pytest.mark.parametrize(
        "trainer_cls, group_config",
        [
            (PipelineTrainer, GroupConfig(num_devices=1)),
            (DistributedTrainer, GroupConfig(num_devices=1)),
        ],
        ids=["pipeline", "group"],
    )
    def test_schedules_the_single_device_timeline(
        self, small_graph, trainer_cls, group_config, memory, op_records
    ):
        """A group of one is the single-device trainer, op for op."""
        config = TrainerConfig(model="tgcn", frame_size=4, epochs=3)
        pipad = PiPADConfig(preparing_epochs=1, fixed_s_per=2)
        single = PiPADTrainer(small_graph, config, pipad, memory_config=memory)
        grouped = trainer_cls(
            small_graph, config, pipad, group_config, memory_config=memory
        )
        single_result = single.train()
        grouped_result = grouped.train()
        assert len(grouped.group.devices) == 1
        lead = grouped.device.timeline.ops
        assert op_records([lead]) == op_records([single.device.timeline.ops])
        assert grouped_result.loss_curve() == single_result.loss_curve()
        assert grouped_result.simulated_seconds == single_result.simulated_seconds
        if memory.feature_cache:
            for tier in ("gpu", "pinned", "spill"):
                assert grouped_result.extras[f"feature_cache_{tier}_hits"] > 0
