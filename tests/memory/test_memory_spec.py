"""MemorySpec validation, serialization and CLI override coercion."""

from __future__ import annotations

import pytest

from repro.api import MemorySpec, RunSpec
from repro.api.cli import load_spec
from repro.gpu.memory_model import feature_cache_budget_bytes
from repro.gpu.spec import GPUSpec
from repro.memory import MemoryConfig


class TestValidation:
    def test_defaults_are_off(self):
        spec = MemorySpec()
        assert spec.feature_cache is False
        assert spec.policy == "lru"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="cache policy"):
            MemorySpec(policy="arc")

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="gpu_budget_fraction"):
            MemorySpec(gpu_budget_fraction=1.5)

    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError, match="gpu_budget_mb"):
            MemorySpec(gpu_budget_mb=-1.0)
        with pytest.raises(ValueError, match="pinned_budget_mb"):
            MemorySpec(pinned_budget_mb=-1.0)
        with pytest.raises(ValueError, match="spill_budget_mb"):
            MemorySpec(spill_budget_mb=-1.0)

    def test_block_rows_must_be_positive_int(self):
        with pytest.raises(ValueError, match="block_rows"):
            MemorySpec(block_rows=0)
        with pytest.raises(ValueError, match="block_rows"):
            MemorySpec(block_rows=1.5)
        # The core config owns the rule (it once accepted True and 2.5).
        for block_rows in (0, 2.5, True):
            with pytest.raises(ValueError, match="block_rows"):
                MemoryConfig(block_rows=block_rows)

    def test_to_memory_config_mirrors_fields(self):
        spec = MemorySpec(
            feature_cache=True,
            policy="clock",
            gpu_budget_mb=64.0,
            pinned_budget_mb=32.0,
            spill_budget_mb=128.0,
            block_rows=16,
        )
        config = spec.to_memory_config()
        assert isinstance(config, MemoryConfig)
        assert config.feature_cache is True
        assert config.policy == "clock"
        assert config.gpu_budget_mb == 64.0
        assert config.pinned_budget_mb == 32.0
        assert config.spill_budget_mb == 128.0
        assert config.block_rows == 16


class TestRunSpecPlumbing:
    def test_default_memory_section(self):
        spec = RunSpec(dataset="covid19_england")
        assert spec.memory == MemorySpec()

    def test_json_round_trip_with_memory(self):
        spec = RunSpec(
            dataset="flickr",
            memory=MemorySpec(feature_cache=True, policy="clock", block_rows=32),
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.memory.policy == "clock"

    def test_mapping_coercion(self):
        spec = RunSpec.from_dict(
            {"dataset": "flickr", "memory": {"feature_cache": True, "block_rows": 8}}
        )
        assert isinstance(spec.memory, MemorySpec)
        assert spec.memory.feature_cache is True
        assert spec.memory.block_rows == 8

    def test_unknown_memory_key_rejected(self):
        with pytest.raises(ValueError, match="unknown MemorySpec key"):
            RunSpec.from_dict({"dataset": "flickr", "memory": {"hbm_gb": 32}})


class TestCliOverrides:
    def test_set_memory_overrides_coerce(self):
        spec = load_spec(
            "quick",
            [
                "memory.feature_cache=true",
                "memory.policy=clock",
                "memory.gpu_budget_mb=64",
                "memory.block_rows=32",
            ],
        )
        assert spec.memory.feature_cache is True
        assert spec.memory.policy == "clock"
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
            gpu, model_bytes=1024**3, activation_bytes=1024**3, fraction=0.5
        )
        expected = int((gpu.memory_bytes * 0.9 - 2 * 1024**3) * 0.5)
        assert budget == expected

    def test_budget_floors_at_zero(self):
        gpu = GPUSpec()
        assert (
            feature_cache_budget_bytes(gpu, activation_bytes=1e18, fraction=0.5) == 0
        )

    def test_budget_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            feature_cache_budget_bytes(GPUSpec(), fraction=1.5)
        with pytest.raises(ValueError):
            feature_cache_budget_bytes(GPUSpec(), safety=0.0)
