"""Common vocabulary of the sanitizer: violations, reports, artifacts.

Every checker in :mod:`repro.analysis` consumes artifacts the stack
already produces — :class:`~repro.gpu.timeline.Timeline` op streams,
:class:`~repro.gpu.device_group.DeviceGroup` collectives, feature-cache
stats — and emits :class:`Violation` records.  :func:`collect_artifacts`
gathers those artifacts duck-typed from a trainer and/or serving engine,
so the analyzer never needs bespoke plumbing per topology.  It is the one
device walk of the repo: :class:`repro.telemetry.runtime.Telemetry` builds
its Chrome-trace tracks and its timeline projection from the same
``timelines``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING)


class AnalysisError(RuntimeError):
    """Raised when a sanitized run finished with error-severity violations."""

    def __init__(self, report: "AnalysisReport") -> None:
        self.report = report
        errors = report.errors
        lines = [f"{len(errors)} sanitizer violation(s):"]
        lines += [f"  [{v.check}] {v.message}" for v in errors[:10]]
        if len(errors) > 10:
            lines.append(f"  ... and {len(errors) - 10} more")
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class Violation:
    """One broken invariant, located in simulated time and space."""

    #: name of the check that fired (a ``CHECK_REGISTRY`` key)
    check: str
    #: human-actionable description: what conflicts, where, and what to change
    message: str
    severity: str = SEVERITY_ERROR
    #: trace domain the violation belongs to (``train`` or ``serve``)
    domain: str = "train"
    #: simulated seconds the violation anchors to (instant-event timestamp)
    time: float = 0.0
    #: offending component (``gpu0``, ``serve_gpu2``, ``spec.memory`` ...)
    source: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "message": self.message,
            "severity": self.severity,
            "domain": self.domain,
            "time": self.time,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Violation":
        return cls(
            check=str(data["check"]),
            message=str(data["message"]),
            severity=str(data.get("severity", SEVERITY_ERROR)),
            domain=str(data.get("domain", "train")),
            time=float(data.get("time", 0.0)),
            source=str(data.get("source", "")),
        )


@dataclass
class AnalysisReport:
    """Outcome of one sanitizer pass: which checks ran, what they found."""

    checks: Tuple[str, ...] = ()
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def errors(self) -> List[Violation]:
        return [v for v in self.violations if v.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Violation]:
        return [v for v in self.violations if v.severity == SEVERITY_WARNING]

    def format(self) -> str:
        lines = [
            f"analysis: {len(self.checks)} check(s), "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        ]
        for violation in self.violations:
            lines.append(
                f"  {violation.severity.upper():7s} [{violation.check}] "
                f"{violation.message}"
            )
        if not self.violations:
            lines.append("  clean: no violations")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "checks": list(self.checks),
            "num_violations": len(self.violations),
            "num_errors": len(self.errors),
            "num_warnings": len(self.warnings),
            "violations": [v.to_dict() for v in self.violations],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AnalysisReport":
        return cls(
            checks=tuple(data.get("checks", ())),
            violations=[
                Violation.from_dict(v) for v in data.get("violations", [])
            ],
        )


@dataclass
class ExecutionArtifacts:
    """Everything the dynamic checkers replay, gathered after a run.

    ``timelines`` carries ``(source_name, domain, timeline)`` triples —
    source names follow the Chrome-trace track naming (``gpu{i}`` /
    ``serve_gpu{i}``) so a violation points at the same track the user sees
    in the trace viewer.  ``groups`` are :class:`DeviceGroup`-likes whose
    member timelines the collective lint cross-checks; ``caches`` and
    ``devices`` feed the watermark checker's budget assertions.
    """

    timelines: List[Tuple[str, str, object]] = field(default_factory=list)
    groups: List[Tuple[str, str, object]] = field(default_factory=list)
    caches: List[Tuple[str, str, object]] = field(default_factory=list)
    devices: List[Tuple[str, str, object]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.timelines or self.groups or self.caches or self.devices)


def _collect_side(
    artifacts: ExecutionArtifacts,
    domain: str,
    prefix: str,
    devices: Sequence[object],
    group: Optional[object],
    caches: Sequence[object],
) -> None:
    for index, device in enumerate(devices):
        name = f"{prefix}{index}"
        artifacts.devices.append((name, domain, device))
        artifacts.timelines.append((name, domain, device.timeline))
    if group is not None and len(getattr(group, "devices", [])) > 1:
        artifacts.groups.append((prefix.rstrip("_") or prefix, domain, group))
    for index, cache in enumerate(caches):
        if cache is not None:
            artifacts.caches.append((f"{prefix}{index}", domain, cache))


def collect_artifacts(
    trainer: Optional[object] = None, serving_engine: Optional[object] = None
) -> ExecutionArtifacts:
    """Duck-typed artifact gathering over a trainer and/or serving engine.

    Trainers expose ``device``/``group``/``feature_caches``; serving engines
    expose either ``replicas`` (sharded/fleet) or a single ``device`` plus
    ``feature_cache``.  Unknown shapes contribute nothing rather than fail:
    the sanitizer must run against any engine telemetry can trace.
    """
    artifacts = ExecutionArtifacts()
    if trainer is not None:
        group = getattr(trainer, "group", None)
        devices = list(group.devices) if group is not None else [trainer.device]
        caches = list(getattr(trainer, "feature_caches", []) or [])
        if not caches:
            single = getattr(trainer, "feature_cache", None)
            if single is not None:
                caches = [single]
        _collect_side(artifacts, "train", "gpu", devices, group, caches)
    if serving_engine is not None:
        replicas = getattr(serving_engine, "replicas", None)
        if replicas is None:
            replicas = [serving_engine]
        devices = [r.device for r in replicas if hasattr(r, "device")]
        caches = [getattr(r, "feature_cache", None) for r in replicas]
        _collect_side(artifacts, "serve", "serve_gpu", devices, None, caches)
    return artifacts
