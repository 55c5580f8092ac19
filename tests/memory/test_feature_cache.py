"""FeatureCache semantics: tier cascade, demotion, invalidation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    TIER_GPU,
    TIER_PINNED,
    TIER_SPILL,
    FeatureCache,
    aggregate_cache_stats,
    blocks_covering,
    blocks_of_rows,
)


def make_cache(gpu=100, pinned=100, spill=None, policy="lru"):
    return FeatureCache(
        gpu_budget_bytes=gpu,
        pinned_budget_bytes=pinned,
        spill_budget_bytes=spill,
        policy=policy,
    )


class TestAccessAndAdmission:
    def test_miss_admits_into_gpu_tier_first(self):
        cache = make_cache()
        plan = cache.access([("a", 40.0)])
        assert plan.misses == 1 and plan.miss_bytes == 40.0
        assert cache.tier_of("a") == TIER_GPU

    def test_hit_reports_tier_bytes(self):
        cache = make_cache()
        cache.access([("a", 40.0)])
        plan = cache.access([("a", 40.0)])
        assert plan.gpu_hits == 1 and plan.gpu_bytes == 40.0
        assert plan.transfer_bytes == 0.0 and plan.gather_bytes == 0.0

    def test_pinned_hit_still_pays_the_transfer(self):
        cache = make_cache(gpu=0, pinned=100)
        cache.access([("a", 40.0)])
        assert cache.tier_of("a") == TIER_PINNED
        plan = cache.access([("a", 40.0)])
        assert plan.pinned_hits == 1
        assert plan.transfer_bytes == 40.0  # h2d still happens
        assert plan.gather_bytes == 0.0  # gather+pin skipped

    def test_spill_hit_costs_like_a_miss(self):
        cache = make_cache(gpu=0, pinned=0)
        cache.access([("a", 40.0)])
        assert cache.tier_of("a") == TIER_SPILL
        plan = cache.access([("a", 40.0)])
        assert plan.spill_hits == 1
        assert plan.transfer_bytes == 40.0 and plan.gather_bytes == 40.0

    def test_eviction_cascades_downward(self):
        cache = make_cache(gpu=100, pinned=100)
        cache.access([("a", 60.0), ("b", 60.0)])  # b evicts a to pinned
        assert cache.tier_of("b") == TIER_GPU
        assert cache.tier_of("a") == TIER_PINNED
        stats = cache.stats()
        assert stats["feature_cache_evictions"] == 1
        assert stats["feature_cache_demotions"] == 1

    def test_block_larger_than_every_bounded_tier_stays_uncached(self):
        cache = make_cache(gpu=10, pinned=10, spill=10)
        plan = cache.access([("huge", 50.0)])
        assert plan.misses == 1
        assert "huge" not in cache
        # A second access misses again — the block never became resident.
        assert cache.access([("huge", 50.0)]).misses == 1

    def test_zero_capacity_gpu_tier_sends_everything_down(self):
        """Satellite: a 0-byte GPU budget degrades to pinned+spill cleanly."""
        cache = make_cache(gpu=0, pinned=80)
        cache.access([(k, 40.0) for k in "abcd"])
        assert cache.tiers[TIER_GPU].used_bytes == 0.0
        stats = cache.stats()
        assert stats["feature_cache_gpu_used_bytes"] == 0.0
        assert stats["feature_cache_gpu_hits"] == 0
        # Everything is still cache-managed: 2 blocks pinned, 2 spilled.
        assert cache.tiers[TIER_PINNED].used_bytes == 80.0
        assert cache.tiers[TIER_SPILL].used_bytes == 80.0
        plan = cache.access([(k, 40.0) for k in "abcd"])
        assert plan.pinned_hits + plan.spill_hits == 4

    def test_clock_policy_spares_hot_blocks(self):
        cache = make_cache(gpu=100, pinned=0, policy="clock")
        cache.access([("hot", 50.0), ("cold", 50.0)])
        cache.access([("hot", 50.0)])  # sets hot's reference bit
        cache.access([("new", 50.0)])  # evicts cold, not hot
        assert cache.tier_of("hot") == TIER_GPU
        assert cache.tier_of("cold") == TIER_SPILL


class TestInvalidate:
    def test_invalidate_drops_blocks(self):
        cache = make_cache()
        cache.access([("a", 40.0), ("b", 40.0)])
        assert cache.invalidate(["a", "nope"]) == 1
        assert "a" not in cache
        assert cache.stats()["feature_cache_invalidations"] == 1
        # The next access is a genuine miss, not a stale hit.
        assert cache.access([("a", 40.0)]).misses == 1

    def test_clear_resets_residency_but_keeps_counters(self):
        cache = make_cache()
        cache.access([("a", 40.0)])
        cache.clear()
        assert "a" not in cache
        assert cache.stats()["feature_cache_misses"] == 1


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["access", "invalidate"]),
            st.integers(min_value=0, max_value=11),
        ),
        max_size=60,
    ),
    gpu=st.integers(min_value=0, max_value=120),
    pinned=st.integers(min_value=0, max_value=120),
    spill=st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
    policy=st.sampled_from(["lru", "clock"]),
)
def test_tiers_stay_within_budget(ops, gpu, pinned, spill, policy):
    """Property: whatever interleaving of accesses and invalidations the
    cache sees, each block lives in at most one tier and no tier holds more
    bytes than its budget."""
    cache = FeatureCache(
        gpu_budget_bytes=gpu,
        pinned_budget_bytes=pinned,
        spill_budget_bytes=spill,
        policy=policy,
    )
    for op, block in ops:
        key = f"k{block}"
        if op == "access":
            cache.access([(key, float(10 + block))])
        else:
            cache.invalidate([key])
    seen = set()
    for tier in cache.tiers.values():
        assert not seen & set(tier.entries)
        seen |= set(tier.entries)
        assert tier.used_bytes == pytest.approx(sum(tier.entries.values()))
        if tier.capacity_bytes is not None:
            assert tier.used_bytes <= tier.capacity_bytes
    assert cache.stats()["feature_cache_writeback_bytes"] == 0.0


class TestHelpers:
    def test_blocks_covering_partial_ranges(self):
        assert blocks_covering(0, 10, 4) == [(0, 0, 4), (1, 4, 8), (2, 8, 10)]
        assert blocks_covering(5, 7, 4) == [(1, 5, 7)]
        assert blocks_covering(5, 5, 4) == []

    def test_blocks_of_rows_dedups_and_sorts(self):
        assert blocks_of_rows([9, 1, 8, 0], 4) == [0, 2]

    def test_aggregate_recomputes_hit_rate(self):
        a = make_cache()
        b = make_cache()
        a.access([("x", 10.0)])
        a.access([("x", 10.0)])  # 1 hit, 1 miss
        b.access([("y", 10.0)])  # 1 miss
        merged = aggregate_cache_stats([a.stats(), b.stats()])
        assert merged["feature_cache_misses"] == 2
        assert merged["feature_cache_gpu_hits"] == 1
        assert merged["feature_cache_hit_rate"] == pytest.approx(1.0 / 3.0)

    def test_rejects_negative_budgets(self):
        with pytest.raises(ValueError, match="budgets"):
            FeatureCache(gpu_budget_bytes=-1)
