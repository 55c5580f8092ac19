"""Multi-tier feature cache: GPU-resident rows over pinned-host and spill.

The cache models *where feature row-blocks live*, not the rows
themselves — numerics always read the authoritative feature arrays, so
caching can never change a loss or a prediction.  What it changes is the
byte accounting handed to the datapipe:

- **GPU tier** — rows resident in device HBM.  A hit here skips the
  entire gather → pin → h2d path.
- **Pinned tier** — rows staged in page-locked host memory.  This tier
  *is* the datapipe ``pin`` stage's staging buffer: a hit skips gather
  and pin but still pays the h2d copy at pinned bandwidth.
- **Spill tier** — rows explicitly spilled to pageable host memory.
  A hit is tracked (the row was cache-managed) but costs the same as a
  miss: it re-enters the pipe at the gather stage.

Evictions cascade downward (GPU → pinned → spill); eviction from the
spill tier is final.  Cached rows are read-only copies, so an eviction
never writes anything back (``feature_cache_writeback_bytes`` stays 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.gpu.device import OutOfMemoryError, SimulatedGPU
from repro.gpu.memory_model import feature_cache_budget_bytes
from repro.utils.validation import (
    check_choice,
    check_in_range,
    check_int,
    check_non_negative,
    check_positive,
)

from .policy import CACHE_POLICY_REGISTRY, CachePolicy, build_policy

TIER_GPU = "gpu"
TIER_PINNED = "pinned"
TIER_SPILL = "spill"
TIER_ORDER = (TIER_GPU, TIER_PINNED, TIER_SPILL)


@dataclass(frozen=True)
class MemoryConfig:
    """Knobs of the feature cache; a run spec's ``memory`` section is one.

    The rule tying ``gpu_budget_mb`` to the device's HBM belongs to the run
    (``RunSpec``), which knows its devices.
    """

    feature_cache: bool = False
    policy: str = "lru"
    gpu_budget_fraction: float = 0.5
    gpu_budget_mb: Optional[float] = None
    pinned_budget_mb: float = 256.0
    spill_budget_mb: Optional[float] = None
    block_rows: int = 256

    def __post_init__(self) -> None:
        check_choice("cache policy", self.policy, CACHE_POLICY_REGISTRY, "policies")
        check_in_range("gpu_budget_fraction", self.gpu_budget_fraction, 0.0, 1.0)
        for name in ("gpu_budget_mb", "pinned_budget_mb", "spill_budget_mb"):
            if getattr(self, name) is not None:
                check_non_negative(name, getattr(self, name))
        check_int("block_rows", self.block_rows)
        check_positive("block_rows", self.block_rows)


@dataclass
class AccessPlan:
    """Outcome of one batched cache access, in bytes per tier.

    ``transfer_bytes``/``gather_bytes`` give the datapipe accounting
    directly: GPU hits skip the whole path, pinned hits skip gather+pin.
    """

    total_bytes: float = 0.0
    gpu_bytes: float = 0.0
    pinned_bytes: float = 0.0
    spill_bytes: float = 0.0
    miss_bytes: float = 0.0
    gpu_hits: int = 0
    pinned_hits: int = 0
    spill_hits: int = 0
    misses: int = 0
    #: cache keys the access touched, in request order (the happens-before
    #: analyzer marks the gather stage as reading exactly these blocks)
    block_keys: Tuple[Hashable, ...] = ()

    @property
    def transfer_bytes(self) -> float:
        """Bytes that must still cross PCIe (everything not GPU-resident)."""
        return max(0.0, self.total_bytes - self.gpu_bytes)

    @property
    def gather_bytes(self) -> float:
        """Bytes the host must still gather+pin (missed the pinned tier too)."""
        return max(0.0, self.total_bytes - self.gpu_bytes - self.pinned_bytes)


class CacheTier:
    """One tier: capacity-bounded set of key → bytes with a policy."""

    def __init__(self, name: str, capacity_bytes: Optional[int], policy: CachePolicy) -> None:
        self.name = name
        self.capacity_bytes = capacity_bytes  # None = unbounded
        self.policy = policy
        self.entries: Dict[Hashable, float] = {}
        self.used_bytes = 0.0
        #: bytes promised to in-flight staging buffers (no key, not evictable);
        #: the prefetcher charges its pin-stage buffers here so resident
        #: blocks plus staging never exceed the tier budget
        self.reserved_bytes = 0.0

    def __contains__(self, key: Hashable) -> bool:
        return key in self.entries

    def fits(self, nbytes: float) -> bool:
        return self.capacity_bytes is None or nbytes <= self.capacity_bytes

    def has_room(self, nbytes: float) -> bool:
        if self.capacity_bytes is None:
            return True
        return self.used_bytes + self.reserved_bytes + nbytes <= self.capacity_bytes

    def admit(self, key: Hashable, nbytes: float) -> None:
        self.entries[key] = nbytes
        self.used_bytes += nbytes
        self.policy.on_admit(key)

    def remove(self, key: Hashable) -> float:
        nbytes = self.entries.pop(key)
        self.used_bytes -= nbytes
        self.policy.on_evict(key)
        return nbytes

    def victim(self) -> Optional[Hashable]:
        return self.policy.victim()

    def clear(self) -> None:
        self.entries.clear()
        self.used_bytes = 0.0
        self.policy.clear()


class FeatureCache:
    """Three-tier feature-row cache with cascading demotion.

    Budgets are explicit byte capacities; derive the GPU budget with
    :func:`repro.gpu.memory_model.feature_cache_budget_bytes`.
    """

    def __init__(
        self,
        *,
        gpu_budget_bytes: int = 0,
        pinned_budget_bytes: int = 0,
        spill_budget_bytes: Optional[int] = None,
        policy: str = "lru",
    ) -> None:
        if gpu_budget_bytes < 0 or pinned_budget_bytes < 0:
            raise ValueError("tier budgets must be >= 0")
        if spill_budget_bytes is not None and spill_budget_bytes < 0:
            raise ValueError("tier budgets must be >= 0")
        self.policy_name = policy
        self.tiers: Dict[str, CacheTier] = {
            TIER_GPU: CacheTier(TIER_GPU, int(gpu_budget_bytes), build_policy(policy)),
            TIER_PINNED: CacheTier(TIER_PINNED, int(pinned_budget_bytes), build_policy(policy)),
            TIER_SPILL: CacheTier(
                TIER_SPILL,
                None if spill_budget_bytes is None else int(spill_budget_bytes),
                build_policy(policy),
            ),
        }
        #: high-water mark of pinned residency + in-flight staging, the
        #: quantity the memory-watermark checker verifies against the budget
        self.peak_pinned_bytes = 0.0
        self.counters: Dict[str, float] = {
            "gpu_hits": 0,
            "pinned_hits": 0,
            "spill_hits": 0,
            "misses": 0,
            "hit_bytes": 0.0,
            "miss_bytes": 0.0,
            "evictions": 0,
            "demotions": 0,
            "invalidations": 0,
        }

    # -- residency ---------------------------------------------------------

    def tier_of(self, key: Hashable) -> Optional[str]:
        for name in TIER_ORDER:
            if key in self.tiers[name]:
                return name
        return None

    def __contains__(self, key: Hashable) -> bool:
        return self.tier_of(key) is not None

    # -- core access -------------------------------------------------------

    def access(self, requests: Iterable[Tuple[Hashable, float]]) -> AccessPlan:
        """Look up (and admit on miss) a batch of ``(key, nbytes)`` blocks.

        Returns an :class:`AccessPlan` whose per-tier byte totals the
        caller subtracts from the datapipe item's stage bytes.
        """
        plan = AccessPlan()
        keys: List[Hashable] = []
        for key, nbytes in requests:
            keys.append(key)
            nbytes = float(nbytes)
            plan.total_bytes += nbytes
            tier = self.tier_of(key)
            if tier is not None:
                self.tiers[tier].policy.on_access(key)
                self.counters["hit_bytes"] += nbytes
                if tier == TIER_GPU:
                    plan.gpu_hits += 1
                    plan.gpu_bytes += nbytes
                    self.counters["gpu_hits"] += 1
                elif tier == TIER_PINNED:
                    plan.pinned_hits += 1
                    plan.pinned_bytes += nbytes
                    self.counters["pinned_hits"] += 1
                else:
                    plan.spill_hits += 1
                    plan.spill_bytes += nbytes
                    self.counters["spill_hits"] += 1
                continue
            plan.misses += 1
            plan.miss_bytes += nbytes
            self.counters["misses"] += 1
            self.counters["miss_bytes"] += nbytes
            self._admit(key, nbytes)
        plan.block_keys = tuple(keys)
        return plan

    def _admit(self, key: Hashable, nbytes: float) -> None:
        for name in TIER_ORDER:
            tier = self.tiers[name]
            if not tier.fits(nbytes):
                continue
            self._make_room(name, nbytes)
            if not tier.has_room(nbytes):
                # Staging reservations squeeze the usable capacity below what
                # eviction can free; fall through to the next tier.
                continue
            tier.admit(key, nbytes)
            if name == TIER_PINNED:
                self._note_pinned_peak()
            return
        # Block larger than every bounded tier: stays uncached.

    def _make_room(self, name: str, nbytes: float) -> None:
        tier = self.tiers[name]
        while not tier.has_room(nbytes):
            victim = tier.victim()
            if victim is None:
                return
            victim_bytes = tier.remove(victim)
            self.counters["evictions"] += 1
            self._demote(name, victim, victim_bytes)

    def _demote(self, from_tier: str, key: Hashable, nbytes: float) -> None:
        start = TIER_ORDER.index(from_tier) + 1
        for name in TIER_ORDER[start:]:
            tier = self.tiers[name]
            if not tier.fits(nbytes):
                continue
            self._make_room(name, nbytes)
            if not tier.has_room(nbytes):
                continue
            tier.admit(key, nbytes)
            if name == TIER_PINNED:
                self._note_pinned_peak()
            self.counters["demotions"] += 1
            return

    # -- staging reservations ---------------------------------------------

    def _note_pinned_peak(self) -> None:
        tier = self.tiers[TIER_PINNED]
        self.peak_pinned_bytes = max(
            self.peak_pinned_bytes, tier.used_bytes + tier.reserved_bytes
        )

    def reserve_staging(self, nbytes: float) -> float:
        """Charge an in-flight pin-stage staging buffer against the pinned tier.

        The pinned tier *is* the datapipe's staging memory, so a buffer being
        pinned for an h2d copy must count against ``pinned_budget_mb`` even
        though it has no cache key yet.  Resident pinned blocks are demoted
        to make room; the reservation is dropped via :meth:`release_staging`
        once the transfer completes.

        The pool is bounded: a buffer larger than what eviction can free is
        streamed through recycled bounce buffers instead of growing the pool,
        so residency + reservations never exceed the tier capacity.  Returns
        the bytes actually charged — pass the same value to
        :meth:`release_staging`.
        """
        if nbytes <= 0:
            return 0.0
        tier = self.tiers[TIER_PINNED]
        if tier.capacity_bytes is not None:
            nbytes = min(nbytes, float(tier.capacity_bytes))
        self._make_room(TIER_PINNED, nbytes)
        if tier.capacity_bytes is not None:
            nbytes = min(
                nbytes,
                max(0.0, tier.capacity_bytes - tier.used_bytes - tier.reserved_bytes),
            )
        tier.reserved_bytes += nbytes
        self._note_pinned_peak()
        return nbytes

    def release_staging(self, nbytes: float) -> None:
        """Return staging bytes reserved with :meth:`reserve_staging`."""
        tier = self.tiers[TIER_PINNED]
        tier.reserved_bytes = max(0.0, tier.reserved_bytes - nbytes)

    # -- mutation ----------------------------------------------------------

    def invalidate(self, keys: Iterable[Hashable]) -> int:
        """Drop blocks whose backing rows changed.  Returns count dropped."""
        dropped = 0
        for key in keys:
            tier = self.tier_of(key)
            if tier is None:
                continue
            self.tiers[tier].remove(key)
            dropped += 1
        self.counters["invalidations"] += dropped
        return dropped

    def clear(self) -> None:
        for tier in self.tiers.values():
            tier.clear()

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, float]:
        c = self.counters
        hits = c["gpu_hits"] + c["pinned_hits"] + c["spill_hits"]
        accesses = hits + c["misses"]
        out = {
            "feature_cache_gpu_hits": c["gpu_hits"],
            "feature_cache_pinned_hits": c["pinned_hits"],
            "feature_cache_spill_hits": c["spill_hits"],
            "feature_cache_misses": c["misses"],
            "feature_cache_hit_rate": (hits / accesses) if accesses else 0.0,
            "feature_cache_hit_bytes": c["hit_bytes"],
            "feature_cache_miss_bytes": c["miss_bytes"],
            "feature_cache_evictions": c["evictions"],
            "feature_cache_demotions": c["demotions"],
            "feature_cache_writebacks": 0,
            "feature_cache_writeback_bytes": 0.0,
            "feature_cache_invalidations": c["invalidations"],
        }
        for name in TIER_ORDER:
            tier = self.tiers[name]
            out[f"feature_cache_{name}_used_bytes"] = tier.used_bytes
            if tier.capacity_bytes is not None:
                out[f"feature_cache_{name}_capacity_bytes"] = float(tier.capacity_bytes)
        out["feature_cache_staging_reserved_bytes"] = self.tiers[
            TIER_PINNED
        ].reserved_bytes
        out["feature_cache_peak_pinned_bytes"] = self.peak_pinned_bytes
        return out


# -- block helpers ---------------------------------------------------------


def build_feature_cache(
    device: SimulatedGPU,
    memory: MemoryConfig,
    *,
    feature_bytes: float,
    feature_set: str,
    parameters: Iterable[Any],
    activation_bytes: float,
) -> Optional[FeatureCache]:
    """One device's cache, or ``None`` when ``memory.feature_cache`` is off.

    Uncached, the device must hold all ``feature_bytes`` of its feature set
    (``feature_set`` names it in the error) in HBM, or the run is refused
    with :class:`~repro.gpu.device.OutOfMemoryError`.  Cached, the GPU tier
    is carved out of the device's HBM: ``memory.gpu_budget_mb`` when pinned,
    otherwise what HBM can spare next to the model's ``parameters`` and the
    activation working set.
    """
    spec = device.spec
    if not memory.feature_cache:
        if feature_bytes > spec.memory_bytes:
            raise OutOfMemoryError(
                f"{feature_set} ({feature_bytes / 1024**3:.1f} GiB) exceeds "
                f"{spec.name} HBM ({spec.memory_gb:.0f} GiB); enable the "
                "multi-tier feature cache (memory.feature_cache=true) to stage "
                "features through the pinned-host and spill tiers"
            )
        return None
    mib = 1024 * 1024
    if memory.gpu_budget_mb is not None:
        gpu_budget = int(memory.gpu_budget_mb * mib)
    else:
        gpu_budget = feature_cache_budget_bytes(
            spec,
            model_bytes=float(sum(p.data.nbytes for p in parameters)),
            activation_bytes=activation_bytes,
            fraction=memory.gpu_budget_fraction,
        )
    spill_mb = memory.spill_budget_mb
    cache = FeatureCache(
        gpu_budget_bytes=gpu_budget,
        pinned_budget_bytes=int(memory.pinned_budget_mb * mib),
        spill_budget_bytes=None if spill_mb is None else int(spill_mb * mib),
        policy=memory.policy,
    )
    if gpu_budget > 0:
        # Peak-memory honesty: the GPU tier occupies real HBM alongside the
        # reuse buffer (raises OutOfMemoryError on absurd budgets).
        device.malloc("feature_cache", gpu_budget)
    return cache


def blocks_covering(lo: int, hi: int, block_rows: int) -> List[Tuple[int, int, int]]:
    """Blocks overlapping the row range ``[lo, hi)`` as (block_id, lo, hi)."""
    if hi <= lo:
        return []
    first = lo // block_rows
    last = (hi - 1) // block_rows
    out = []
    for block in range(first, last + 1):
        b_lo = max(lo, block * block_rows)
        b_hi = min(hi, (block + 1) * block_rows)
        out.append((block, b_lo, b_hi))
    return out


def blocks_of_rows(rows: Iterable[int], block_rows: int) -> List[int]:
    """Sorted, de-duplicated block ids touched by the given row indices."""
    return sorted({int(r) // block_rows for r in rows})


def aggregate_cache_stats(stats_maps: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Sum per-cache stats maps, recomputing the overall hit rate."""
    out: Dict[str, float] = {}
    for stats in stats_maps:
        for key, value in stats.items():
            if key == "feature_cache_hit_rate":
                continue
            out[key] = out.get(key, 0.0) + value
    hits = (
        out.get("feature_cache_gpu_hits", 0.0)
        + out.get("feature_cache_pinned_hits", 0.0)
        + out.get("feature_cache_spill_hits", 0.0)
    )
    accesses = hits + out.get("feature_cache_misses", 0.0)
    out["feature_cache_hit_rate"] = (hits / accesses) if accesses else 0.0
    return out
