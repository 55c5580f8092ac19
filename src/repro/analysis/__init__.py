"""repro.analysis — execution sanitizer + spec lint over the simulated stack.

The correctness gate of the reproduction: happens-before race detection
over the timelines (:mod:`repro.analysis.hb`), collective deadlock /
mismatch lint (:mod:`repro.analysis.collectives`), memory-watermark
replay (:mod:`repro.analysis.watermark`) and static ``RunSpec`` lint
(:mod:`repro.analysis.speclint`), all catalogued in :data:`CHECK_REGISTRY`
(:mod:`repro.analysis.registry`).  The static lint only warns about legal
but useless knobs; the cross-section errors (partition sizes vs. frame and
window, window vs. stream, fleet batch vs. admission limit) are enforced
when the spec is built, so an invalid spec never reaches a check.

Entry points: ``python -m repro check <spec>`` for the static family,
``--sanitize`` on run/serve (or :meth:`repro.api.Engine.sanitize`) for
the execution family.
"""

from .base import (
    AnalysisError,
    AnalysisReport,
    ExecutionArtifacts,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Violation,
    collect_artifacts,
)
from .registry import (
    CHECK_REGISTRY,
    CheckInfo,
    FAMILY_EXECUTION,
    FAMILY_STATIC,
    register_check,
    resolve_checks,
    run_checks,
    static_checks,
)

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "CHECK_REGISTRY",
    "CheckInfo",
    "ExecutionArtifacts",
    "FAMILY_EXECUTION",
    "FAMILY_STATIC",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "Violation",
    "collect_artifacts",
    "register_check",
    "resolve_checks",
    "run_checks",
    "static_checks",
]
