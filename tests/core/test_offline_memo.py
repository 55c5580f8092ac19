"""The per-process offline speedup table is exact and shared."""

from __future__ import annotations

from repro.core import DynamicTuner, OfflineAnalysis
from repro.core.tuner import offline_speedup
from repro.gpu.spec import GPUSpec

SPEC = GPUSpec()


def small(**overrides) -> OfflineAnalysis:
    params = dict(spec=SPEC, num_nodes=96, avg_degree=3.0, seed=5)
    params.update(overrides)
    return OfflineAnalysis(**params)


def test_cached_speedup_equals_uncached_bit_for_bit():
    analysis = small()
    for s_per, rate in ((2, 0.3), (4, 0.9)):
        cached = analysis.speedup(s_per, rate, feature_dim=8)
        fresh = offline_speedup.__wrapped__(
            SPEC, 96, 3.0, 5, s_per, rate, 8, 16
        )
        assert cached.hex() == fresh.hex()
        assert analysis.speedup(s_per, rate, feature_dim=8).hex() == fresh.hex()


def test_each_analysis_parameter_keys_its_own_entry():
    base = small().speedup(4, 0.5, feature_dim=8)
    for field, value in (("num_nodes", 128), ("seed", 6), ("avg_degree", 4.0)):
        other = small(**{field: value})
        want = offline_speedup.__wrapped__(
            other.spec, other.num_nodes, other.avg_degree, other.seed, 4, 0.5, 8, 16,
        )
        got = other.speedup(4, 0.5, feature_dim=8)
        assert got.hex() == want.hex()
        assert got != base, field


def test_second_tuner_reuses_the_table():
    first = DynamicTuner(SPEC, (2, 4), feature_dim=4)
    misses = offline_speedup.cache_info().misses
    second = DynamicTuner(SPEC, (2, 4), feature_dim=4)
    assert offline_speedup.cache_info().misses == misses
    assert second._table == first._table
