"""repro.memory — multi-tier feature cache (HBM → pinned-host → spill).

See :mod:`repro.memory.cache` for the tier semantics and
:mod:`repro.memory.policy` for the eviction policies.
"""

from .cache import (
    TIER_GPU,
    TIER_ORDER,
    TIER_PINNED,
    TIER_SPILL,
    AccessPlan,
    CacheTier,
    FeatureCache,
    MemoryConfig,
    aggregate_cache_stats,
    blocks_covering,
    blocks_of_rows,
    build_feature_cache,
)
from .policy import CACHE_POLICY_REGISTRY, CachePolicy, ClockPolicy, LRUPolicy, build_policy

__all__ = [
    "AccessPlan",
    "CACHE_POLICY_REGISTRY",
    "CachePolicy",
    "CacheTier",
    "ClockPolicy",
    "FeatureCache",
    "LRUPolicy",
    "MemoryConfig",
    "TIER_GPU",
    "TIER_ORDER",
    "TIER_PINNED",
    "TIER_SPILL",
    "aggregate_cache_stats",
    "blocks_covering",
    "blocks_of_rows",
    "build_feature_cache",
    "build_policy",
]
