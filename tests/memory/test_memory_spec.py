"""The memory section (a ``MemoryConfig``): validation, serialization, CLI
override coercion, and the tier budgets it gives a device's cache."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import RunSpec
from repro.api.cli import load_spec
from repro.gpu.memory_model import feature_cache_budget_bytes
from repro.gpu.device import SimulatedGPU
from repro.gpu.spec import GPUSpec
from repro.memory import (
    TIER_GPU,
    TIER_PINNED,
    TIER_SPILL,
    MemoryConfig,
    build_feature_cache,
)


class TestValidation:
    def test_defaults_are_off(self):
        spec = MemoryConfig()
        assert spec.feature_cache is False

    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError, match="gpu_budget_mb"):
            MemoryConfig(gpu_budget_mb=-1.0)
        with pytest.raises(ValueError, match="pinned_budget_mb"):
            MemoryConfig(pinned_budget_mb=-1.0)

    @pytest.mark.parametrize("budget_mb", [16384.0, 20000.0])
    def test_gpu_budget_as_large_as_hbm_rejected(self, budget_mb):
        # 16384 MiB is all of the default GPUSpec's HBM.  The rule belongs
        # to the run (its devices), not to the cache config.
        with pytest.raises(ValueError, match="gpu_budget_mb must be below"):
            RunSpec(memory=MemoryConfig(gpu_budget_mb=budget_mb))
        with pytest.raises(ValueError, match="gpu_budget_mb must be below"):
            RunSpec(memory={"feature_cache": True, "gpu_budget_mb": budget_mb})

    def test_gpu_budget_below_hbm_accepted(self):
        spec = RunSpec(memory={"gpu_budget_mb": 16383.0})
        assert spec.memory.gpu_budget_mb == 16383.0

    def test_block_rows_must_be_positive_int(self):
        # The core config owns the rule (it once accepted True and 2.5).
        for block_rows in (0, 1.5, 2.5, True):
            with pytest.raises(ValueError, match="block_rows"):
                MemoryConfig(block_rows=block_rows)


class TestRunSpecPlumbing:
    def test_default_memory_section(self):
        spec = RunSpec(dataset="covid19_england")
        assert spec.memory == MemoryConfig()

    def test_json_round_trip_with_memory(self):
        spec = RunSpec(
            dataset="flickr",
            memory=MemoryConfig(feature_cache=True, gpu_budget_mb=64.0, block_rows=32),
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.memory.gpu_budget_mb == 64.0

    def test_mapping_coercion(self):
        spec = RunSpec.from_dict(
            {"dataset": "flickr", "memory": {"feature_cache": True, "block_rows": 8}}
        )
        assert isinstance(spec.memory, MemoryConfig)
        assert spec.memory.feature_cache is True
        assert spec.memory.block_rows == 8

    def test_unknown_memory_key_rejected(self):
        with pytest.raises(ValueError, match="unknown MemoryConfig key"):
            RunSpec.from_dict({"dataset": "flickr", "memory": {"hbm_gb": 32}})


class TestCliOverrides:
    def test_set_memory_overrides_coerce(self):
        spec = load_spec(
            "quick",
            [
                "memory.feature_cache=true",
                "memory.gpu_budget_mb=64",
                "memory.block_rows=32",
            ],
        )
        assert spec.memory.feature_cache is True
        assert spec.memory.gpu_budget_mb == 64
        assert spec.memory.block_rows == 32

    def test_python_literal_spelling_accepted(self):
        spec = load_spec("quick", ["memory.feature_cache=True"])
        assert spec.memory.feature_cache is True

    def test_oversized_preset_loads(self):
        spec = load_spec("train-oversized")
        assert spec.memory.feature_cache is True
        assert spec.serving is not None


class TestBudgetDerivation:
    def test_budget_subtracts_reservations(self):
        gpu = GPUSpec()
        budget = feature_cache_budget_bytes(
            gpu, model_bytes=1024**3, activation_bytes=1024**3
        )
        expected = int((gpu.memory_bytes * 0.9 - 2 * 1024**3) * 0.5)
        assert budget == expected

    def test_budget_floors_at_zero(self):
        gpu = GPUSpec()
        assert feature_cache_budget_bytes(gpu, activation_bytes=1e18) == 0


class TestBuildFeatureCache:
    """``build_feature_cache`` sizes one device's tiers from a ``MemoryConfig``."""

    MIB = 1024 * 1024

    @staticmethod
    def build(memory, device=None, *, model_bytes=0, activation_bytes=0.0):
        parameters = [SimpleNamespace(data=np.zeros(model_bytes, dtype=np.uint8))]
        return build_feature_cache(
            device or SimulatedGPU(),
            memory,
            feature_bytes=1024.0,
            feature_set="features",
            parameters=parameters,
            activation_bytes=activation_bytes,
        )

    def test_cache_off_builds_nothing(self):
        device = SimulatedGPU()
        assert self.build(MemoryConfig(), device) is None
        assert device.allocated_bytes == 0

    def test_gpu_budget_mb_sizes_the_gpu_tier_and_holds_hbm(self):
        device = SimulatedGPU()
        cache = self.build(MemoryConfig(feature_cache=True, gpu_budget_mb=64.0), device)
        assert cache.tiers[TIER_GPU].capacity_bytes == 64 * self.MIB
        assert device.allocated_bytes == 64 * self.MIB

    def test_unset_gpu_budget_takes_half_of_the_spare_hbm(self):
        device = SimulatedGPU()
        cache = self.build(
            MemoryConfig(feature_cache=True),
            device,
            model_bytes=4096,
            activation_bytes=1024.0**3,
        )
        expected = feature_cache_budget_bytes(
            device.spec, model_bytes=4096, activation_bytes=1024.0**3
        )
        assert cache.tiers[TIER_GPU].capacity_bytes == expected
        assert expected == int((device.spec.memory_bytes * 0.9 - 4096 - 1024**3) * 0.5)

    def test_pinned_budget_sized_and_spill_unbounded(self):
        cache = self.build(
            MemoryConfig(feature_cache=True, gpu_budget_mb=1.0, pinned_budget_mb=8.0)
        )
        assert cache.tiers[TIER_PINNED].capacity_bytes == 8 * self.MIB
        assert cache.tiers[TIER_SPILL].capacity_bytes is None

    def test_over_committed_device_gets_no_gpu_tier(self):
        device = SimulatedGPU()
        cache = self.build(
            MemoryConfig(feature_cache=True), device, activation_bytes=1e18
        )
        assert cache.tiers[TIER_GPU].capacity_bytes == 0
        assert device.allocated_bytes == 0
