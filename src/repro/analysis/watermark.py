"""Memory-watermark verification: replay budgets over the op stream.

Three ceilings, checked at every instant rather than just at the end:

- **pinned** — the pin stage annotates each op with the staging bytes it
  acquired and the pinned-tier residency at that moment; the h2d op
  releases the staging bytes when it completes.  Replaying acquire/release
  events in simulated-time order recovers the exact pinned high-water mark,
  which must stay within ``pinned_budget_mb`` (the ROADMAP overshoot this
  checker was built to catch).
- **cache tiers** — final GPU/pinned residency (+ reservations) must
  sit within each tier's declared capacity (the spill tier is unbounded).
- **HBM** — every device's ``peak_bytes`` ledger must stay within its
  simulated GPU's memory.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from .base import ExecutionArtifacts, Violation

#: relative slack for float accumulation over long replays
_REL_EPS = 1e-6


def _over(value: float, budget: float) -> bool:
    return value > budget * (1.0 + _REL_EPS) + 1e-6


def _replay_pinned(
    name: str, domain: str, timeline: object
) -> Optional[Violation]:
    """Replay one timeline's staging acquire/release events against budget."""
    columns = timeline.columns
    #: (time, 0 = release / 1 = acquire, bytes, the op's attrs, its row)
    events: List[Tuple[float, int, float, Mapping[str, object], int]] = []
    budget: Optional[float] = None
    for row in columns.rows_with("pinned_acquire_bytes", "pinned_release_bytes"):
        attrs = columns.attrs(row)
        acquired = attrs.get("pinned_acquire_bytes")
        if acquired is not None:
            # Order (release, acquire) at equal timestamps: a buffer drained
            # exactly when the next pin starts is free for reuse.
            events.append((columns.start[row], 1, float(acquired), attrs, row))
            declared = attrs.get("pinned_budget_bytes")
            if declared is not None:
                budget = float(declared)
        released = attrs.get("pinned_release_bytes")
        if released is not None:
            events.append((columns.end[row], 0, float(released), attrs, row))
    if budget is None or not events:
        return None
    events.sort(key=lambda e: (e[0], e[1]))
    staging = 0.0
    tier_used = 0.0
    peak, peak_time, peak_row = 0.0, 0.0, 0
    for time, kind, nbytes, attrs, row in events:
        if kind == 0:
            staging -= nbytes
            continue
        staging += nbytes
        tier_used = float(attrs.get("pinned_tier_used_bytes", tier_used))
        total = staging + tier_used
        if total > peak:
            peak, peak_time, peak_row = total, time, row
    if _over(peak, budget):
        return Violation(
            check="memory-watermark",
            message=(
                f"{name}: pinned watermark {peak / 1024**2:.1f} MiB at "
                f"t={peak_time:.6f}s (op {columns.label(peak_row)!r}) exceeds "
                f"pinned_budget_mb ({budget / 1024**2:.1f} MiB); in-flight "
                "staging must be charged against the pinned tier — raise "
                "memory.pinned_budget_mb or lower data.prefetch_depth"
            ),
            domain=domain,
            time=peak_time,
            source=name,
        )
    return None


def check_memory_watermark(
    artifacts: ExecutionArtifacts, spec: Optional[object] = None
) -> List[Violation]:
    violations: List[Violation] = []
    for name, domain, timeline in artifacts.timelines:
        violation = _replay_pinned(name, domain, timeline)
        if violation is not None:
            violations.append(violation)
    for name, domain, cache in artifacts.caches:
        for tier_name, tier in cache.tiers.items():
            if tier.capacity_bytes is None:
                continue
            occupied = tier.used_bytes + tier.reserved_bytes
            if _over(occupied, float(tier.capacity_bytes)):
                violations.append(
                    Violation(
                        check="memory-watermark",
                        message=(
                            f"{name}: {tier_name} tier holds "
                            f"{occupied / 1024**2:.1f} MiB "
                            f"(residency + reservations) against a "
                            f"{tier.capacity_bytes / 1024**2:.1f} MiB budget"
                        ),
                        domain=domain,
                        source=name,
                    )
                )
        budget = cache.tiers["pinned"].capacity_bytes
        if _over(cache.peak_pinned_bytes, float(budget)):
            violations.append(
                Violation(
                    check="memory-watermark",
                    message=(
                        f"{name}: peak pinned bytes "
                        f"{cache.peak_pinned_bytes / 1024**2:.1f} MiB exceeded "
                        f"pinned_budget_mb ({budget / 1024**2:.1f} MiB) at "
                        "some point of the run"
                    ),
                    domain=domain,
                    source=name,
                )
            )
    for name, domain, device in artifacts.devices:
        spec_obj = getattr(device, "spec", None)
        capacity = getattr(spec_obj, "memory_bytes", None)
        peak = getattr(device, "peak_bytes", None)
        if capacity is None or peak is None:
            continue
        if _over(float(peak), float(capacity)):
            violations.append(
                Violation(
                    check="memory-watermark",
                    message=(
                        f"{name}: peak HBM allocation {peak / 1024**3:.2f} GiB "
                        f"exceeds {spec_obj.name} memory "
                        f"({capacity / 1024**3:.2f} GiB)"
                    ),
                    domain=domain,
                    source=name,
                )
            )
    return violations
