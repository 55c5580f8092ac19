"""``CHECK_REGISTRY``: the catalog of sanitizer checks, plus the runner.

Two check families share one registry:

- **static** checks need only a :class:`~repro.api.spec.RunSpec`; they run
  from ``python -m repro check`` before any engine exists.
- **execution** checks additionally replay
  :class:`~repro.analysis.base.ExecutionArtifacts` gathered from a
  finished run (``--sanitize`` / ``Engine.sanitize``).

Adding a check is one entry: write a ``runner(spec, artifacts) ->
List[Violation]`` and register it with :func:`register_check` (or extend
the literal table below).  ``python -m repro list`` renders the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import collectives, hb, speclint, watermark
from .base import AnalysisReport, ExecutionArtifacts, Violation

FAMILY_STATIC = "static"
FAMILY_EXECUTION = "execution"

#: runner signature: ``(spec, artifacts) -> violations``; static checks
#: ignore the artifacts argument
CheckRunner = Callable[[object, Optional[ExecutionArtifacts]], List[Violation]]


@dataclass(frozen=True)
class CheckInfo:
    """One registered check: identity, family, and how to run it."""

    name: str
    family: str
    description: str
    runner: CheckRunner


def _static(rule: Callable[[object], List[Violation]]) -> CheckRunner:
    return lambda spec, artifacts: rule(spec)


def _execution(
    rule: Callable[[ExecutionArtifacts, object], List[Violation]]
) -> CheckRunner:
    return lambda spec, artifacts: (
        [] if artifacts is None or artifacts.empty else rule(artifacts, spec)
    )


CHECK_REGISTRY: Dict[str, CheckInfo] = {}


def register_check(
    name: str, family: str, description: str, runner: CheckRunner
) -> CheckInfo:
    """Add one check to the registry (how downstream PRs extend the catalog)."""
    if family not in (FAMILY_STATIC, FAMILY_EXECUTION):
        raise ValueError(
            f"family must be {FAMILY_STATIC!r} or {FAMILY_EXECUTION!r}, "
            f"got {family!r}"
        )
    if name in CHECK_REGISTRY:
        raise ValueError(f"check {name!r} is already registered")
    info = CheckInfo(name=name, family=family, description=description, runner=runner)
    CHECK_REGISTRY[name] = info
    return info


register_check(
    "hb-race",
    FAMILY_EXECUTION,
    "ops touching one cache block / staging buffer with no happens-before path",
    _execution(hb.check_hb_races),
)
register_check(
    "collective-match",
    FAMILY_EXECUTION,
    "group collectives agree across ranks in count, kind and bytes",
    _execution(collectives.check_collective_match),
)
register_check(
    "p2p-pairing",
    FAMILY_EXECUTION,
    "every p2p send pairs with one recv on its peer, in channel order",
    _execution(collectives.check_p2p_pairing),
)
register_check(
    "pipeline-order",
    FAMILY_EXECUTION,
    "1F1B backward gradient hops visit pipeline groups strictly backward",
    _execution(collectives.check_pipeline_order),
)
register_check(
    "memory-watermark",
    FAMILY_EXECUTION,
    "HBM / pinned / spill budgets hold at every simulated instant",
    _execution(watermark.check_memory_watermark),
)
register_check(
    "spec-dead-memory",
    FAMILY_STATIC,
    "tier budgets are not declared while the feature cache is off",
    _static(speclint.lint_dead_memory_knobs),
)
register_check(
    "spec-prefetch-pipeline",
    FAMILY_STATIC,
    "prefetch depth is not silently disabled by the pipeline ablation",
    _static(speclint.lint_prefetch_pipeline),
)


def resolve_checks(names: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
    """Validate and normalize a check selection (empty/None = all)."""
    if not names:
        return tuple(CHECK_REGISTRY)
    unknown = [name for name in names if name not in CHECK_REGISTRY]
    if unknown:
        known = ", ".join(sorted(CHECK_REGISTRY))
        raise ValueError(
            f"unknown analysis check(s) {', '.join(map(repr, unknown))} "
            f"(known: {known})"
        )
    return tuple(dict.fromkeys(names))


def run_checks(
    spec: object,
    *,
    artifacts: Optional[ExecutionArtifacts] = None,
    checks: Optional[Sequence[str]] = None,
) -> AnalysisReport:
    """Run the selected checks and collect their findings.

    Without artifacts only static checks can fire; execution checks are
    still listed as having run (vacuously clean) when selected, so a
    ``check`` invocation reports the same catalog a sanitized run does.
    """
    selected = resolve_checks(checks)
    if artifacts is None:
        selected = tuple(
            name
            for name in selected
            if CHECK_REGISTRY[name].family == FAMILY_STATIC
        )
    violations: List[Violation] = []
    for name in selected:
        violations.extend(CHECK_REGISTRY[name].runner(spec, artifacts))
    return AnalysisReport(checks=selected, violations=violations)
