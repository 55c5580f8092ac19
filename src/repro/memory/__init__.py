"""repro.memory — multi-tier feature cache (HBM → pinned-host → spill).

See :mod:`repro.memory.cache` for the tier semantics.
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

__all__ = [
    "AccessPlan",
    "CacheTier",
    "FeatureCache",
    "MemoryConfig",
    "TIER_GPU",
    "TIER_ORDER",
    "TIER_PINNED",
    "TIER_SPILL",
    "aggregate_cache_stats",
    "blocks_covering",
    "blocks_of_rows",
    "build_feature_cache",
]
