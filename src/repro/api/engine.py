"""The execution façade: one ``Engine`` for every scenario the repo runs.

``Engine.from_spec(...)`` accepts a :class:`~repro.api.spec.RunSpec` (or a
dict / JSON file path) and resolves it through the registries in
:mod:`repro.api.registries` into the right concrete machinery —
:class:`~repro.core.trainer.PiPADTrainer`, any PyGT variant,
:class:`~repro.core.distributed_trainer.DistributedTrainer`,
:class:`~repro.serving.scheduler.ServingScheduler` or
:class:`~repro.distributed.serving.ShardedServingEngine` — behind one
``train()`` / ``serve()`` / ``report()`` lifecycle.  Numerics are untouched:
the engine builds exactly the objects the old hand-wired entry points built,
so losses are bit-identical with the pre-façade code paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.analysis import (
    AnalysisError,
    AnalysisReport,
    collect_artifacts,
    run_checks,
)
from repro.api import registries
from repro.api.spec import RunSpec
from repro.baselines.base import DGNNTrainerBase
from repro.baselines.results import TrainingResult
from repro.core.group_trainer import COLLECTIVE_KEYS
from repro.graph.datasets import load_dataset
from repro.graph.dynamic_graph import DynamicGraph
from repro.nn.base_model import DGNNModel
from repro.serving.deltas import ServingEvent, synthesize_serving_trace
from repro.serving.metrics import ServingReport
from repro.telemetry.persistence import restore_float_dict, sanitize_floats
from repro.telemetry.runtime import Telemetry


@dataclass
class RunReport:
    """Normalized outcome of one engine run (training and/or serving)."""

    spec: RunSpec
    training: Optional[TrainingResult] = None
    serving: Optional[ServingReport] = None
    #: flat telemetry snapshot (``MetricsRegistry.snapshot()``); empty when
    #: the run's telemetry is disabled
    metrics: Dict[str, float] = field(default_factory=dict)
    #: structured side-channels keyed by producer (``"analysis"`` holds the
    #: sanitizer's :class:`~repro.analysis.base.AnalysisReport` as plain data)
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def analysis(self) -> Optional[AnalysisReport]:
        """The sanitizer report, rehydrated from extras (None if it never ran)."""
        data = self.extras.get("analysis")
        if data is None:
            return None
        return AnalysisReport.from_dict(data)

    # ------------------------------------------------------------------ views
    def collective_breakdown(self) -> Dict[str, float]:
        """Collective times of a distributed run ({} on single-device runs)."""
        if self.training is None:
            return {}
        return {
            key: self.training.extras[key]
            for key in COLLECTIVE_KEYS
            if key in self.training.extras
        }

    def summary(self) -> Dict[str, float]:
        """Flat scalar summary covering whichever phases ran."""
        out: Dict[str, float] = {}
        if self.training is not None:
            out.update(
                {
                    "train_simulated_seconds": self.training.simulated_seconds,
                    "train_steady_epoch_seconds": self.training.steady_epoch_seconds,
                    "final_loss": self.training.final_loss,
                    "gpu_utilization": self.training.gpu_utilization,
                }
            )
            out.update(self.collective_breakdown())
        if self.serving is not None:
            out.update(
                {f"serving_{k}": v for k, v in self.serving.metrics.summary().items()}
            )
        return out

    def format(self) -> str:
        """Human-readable multi-line report (CLI and example output)."""
        lines = [
            f"run: dataset={self.spec.dataset} model={self.spec.model} "
            f"method={self.spec.method} device={self.spec.device.kind}"
            + (
                f" x{self.spec.device.num_devices} ({self.spec.device.interconnect})"
                if self.spec.device.kind != "single"
                else ""
            )
        ]
        if self.training is not None:
            t = self.training
            lines.append(
                f"  training [{t.method}]: {t.epochs} epochs, "
                f"{t.simulated_seconds * 1e3:.2f} ms simulated "
                f"({t.steady_epoch_seconds * 1e3:.2f} ms/steady epoch), "
                f"final loss {t.final_loss:.4f}, gpu util {t.gpu_utilization:.1%}"
            )
            collectives = self.collective_breakdown()
            if any(v > 0 for v in collectives.values()):
                parts = ", ".join(f"{k}={v * 1e3:.2f} ms" for k, v in collectives.items())
                lines.append(f"  collectives: {parts}")
        if self.serving is not None:
            lines.extend("  " + line for line in self.serving.format().splitlines())
        analysis = self.extras.get("analysis")
        if analysis is not None:
            lines.append(
                f"  analysis: {len(analysis.get('checks', []))} check(s), "
                f"{analysis.get('num_errors', 0)} error(s), "
                f"{analysis.get('num_warnings', 0)} warning(s)"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------ persistence
    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain-data view (strict JSON: non-finite floats become
        the marker strings of :mod:`repro.telemetry.persistence`)."""
        return {
            "spec": self.spec.to_dict(),
            "training": None if self.training is None else self.training.to_dict(),
            "serving": None if self.serving is None else self.serving.to_dict(),
            "metrics": sanitize_floats(dict(self.metrics)),
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunReport":
        training = data.get("training")
        serving = data.get("serving")
        return cls(
            spec=RunSpec.from_dict(data["spec"]),
            training=None if training is None else TrainingResult.from_dict(training),
            serving=None if serving is None else ServingReport.from_dict(serving),
            metrics=restore_float_dict(data.get("metrics")),
            extras=dict(data.get("extras") or {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        """Write the report as JSON; returns the path."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunReport":
        """Read a report back from a JSON file."""
        return cls.from_json(Path(path).read_text())


class Engine:
    """Resolves one :class:`RunSpec` into trainers/serving engines and runs it."""

    def __init__(
        self,
        spec: RunSpec,
        *,
        graph: Optional[DynamicGraph] = None,
        model: Optional[DGNNModel] = None,
    ) -> None:
        self.spec = spec
        self.telemetry = Telemetry.from_spec(spec.telemetry)
        self._graph: Optional[DynamicGraph] = graph
        self._model: Optional[DGNNModel] = model
        self._trainer: Optional[DGNNTrainerBase] = None
        self._training: Optional[TrainingResult] = None
        self._serving_engine: Optional[object] = None
        self._serving_report: Optional[ServingReport] = None
        self._analysis: Optional[AnalysisReport] = None

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_spec(
        cls,
        spec: Union[RunSpec, Mapping[str, Any], str, Path],
        *,
        graph: Optional[DynamicGraph] = None,
        model: Optional[DGNNModel] = None,
    ) -> "Engine":
        """Build an engine from a spec object, a plain dict, or a JSON path.

        ``graph`` injects an already-loaded dataset (sweeps load one graph
        and run several specs against it); when omitted, the engine loads
        the spec's dataset lazily.  ``model`` injects already-trained
        weights: :meth:`serve` then skips the offline training phase, so
        two serving specs can be compared against the exact same model
        instead of each retraining its own.
        """
        if isinstance(spec, RunSpec):
            return cls(spec, graph=graph, model=model)
        if isinstance(spec, Mapping):
            return cls(RunSpec.from_dict(spec), graph=graph, model=model)
        return cls(RunSpec.load(spec), graph=graph, model=model)

    @property
    def graph(self) -> DynamicGraph:
        """The dataset analogue, loaded lazily and reused across phases."""
        if self._graph is None:
            self._graph = load_dataset(
                self.spec.dataset,
                seed=self.spec.seed,
                num_snapshots=self.spec.num_snapshots,
            )
        return self._graph

    @property
    def trainer(self) -> DGNNTrainerBase:
        """The resolved trainer (built on first access, then reused)."""
        if self._trainer is None:
            self._trainer = registries.build_trainer(self.spec, self.graph)
            self.telemetry.attach_trainer(self._trainer)
        return self._trainer

    @property
    def model(self) -> DGNNModel:
        """The model serving predicts with: injected weights win over the
        trainer's own (so comparison runs can share one trained model)."""
        if self._model is not None:
            return self._model
        return self.trainer.model

    @property
    def serving_engine(self):
        """The resolved online engine (requires a serving section)."""
        if self._serving_engine is None:
            self._serving_engine = registries.build_serving(
                self.spec, self.graph, self.model
            )
            self.telemetry.attach_serving(self._serving_engine)
        return self._serving_engine

    # ------------------------------------------------------------------ lifecycle
    def train(self) -> TrainingResult:
        """Run the training phase and cache its result."""
        trainer = self.trainer
        self.telemetry.hooks.on_phase_start("train", trainer._sim_now())
        self._training = trainer.train()
        self.telemetry.hooks.on_phase_end("train", self._training.simulated_seconds)
        return self._training

    def default_trace(self) -> List[ServingEvent]:
        """Synthesize the serving trace the spec's trace section describes."""
        if self.spec.serving is None:
            raise ValueError("spec has no serving section; cannot build a trace")
        trace = self.spec.serving.trace
        return synthesize_serving_trace(
            self.graph.snapshots[-1],
            num_events=trace.num_events,
            request_fraction=trace.request_fraction,
            nodes_per_request=trace.nodes_per_request,
            mean_interarrival_ms=trace.mean_interarrival_ms,
            seed=trace.seed,
        )

    def serve(
        self, trace: Optional[Sequence[ServingEvent]] = None
    ) -> ServingReport:
        """Run the online phase: train if needed, then replay the trace.

        The offline phase trains the model the serving engine predicts with;
        a prior :meth:`train` call is reused, so ``train(); serve()`` and a
        bare ``serve()`` execute identical work.  An injected ``model``
        (see :meth:`from_spec`) skips training entirely.
        """
        if self._model is None and self._training is None:
            self.train()
        events = list(trace) if trace is not None else self.default_trace()
        self.telemetry.hooks.on_phase_start("serve", 0.0)
        self._serving_report = self.serving_engine.run_trace(events)
        self.telemetry.hooks.on_phase_end(
            "serve", self._serving_report.simulated_seconds
        )
        return self._serving_report

    def run(self) -> RunReport:
        """Execute every phase the spec declares and return the report.

        With ``spec.analysis.enabled`` the sanitizer replays the finished
        run *before* artifact export (so violations land in the trace and
        the persisted report), then — unless ``fail_on_violation`` is off —
        fails the run with :class:`~repro.analysis.AnalysisError`.
        """
        self.train()
        if self.spec.serving is not None:
            self.serve()
        if self.spec.analysis.enabled:
            self.sanitize()
        report = self.report()
        self.export_artifacts(report)
        self.raise_on_violations()
        return report

    def report(self) -> RunReport:
        """Normalized report over whatever has executed so far."""
        report = RunReport(
            spec=self.spec,
            training=self._training,
            serving=self._serving_report,
        )
        if self._analysis is not None:
            report.extras["analysis"] = self._analysis.to_dict()
        report.metrics = self.telemetry.collect(
            report, trainer=self._trainer, serving_engine=self._serving_engine
        )
        return report

    # ------------------------------------------------------------------ sanitizer
    def sanitize(self) -> AnalysisReport:
        """Run the analysis checks over whatever has executed so far.

        The static spec lint always applies; the execution checkers replay
        the artifacts of every finished phase (device timelines, collective
        groups, feature caches).  The report is cached, folded into
        :meth:`report` extras, and mirrored into the tracer as Chrome-trace
        instant events so violations show up next to the ops they indict.
        """
        artifacts = collect_artifacts(
            trainer=self._trainer, serving_engine=self._serving_engine
        )
        report = run_checks(
            self.spec,
            artifacts=artifacts,
            checks=self.spec.analysis.checks or None,
        )
        self._record_violations(report)
        self._analysis = report
        return report

    def raise_on_violations(self) -> None:
        """Fail the run if a cached sanitize pass found errors (and the
        spec says violations are fatal).  No-op when clean or not sanitized."""
        if self._analysis is None or self._analysis.ok:
            return
        if self.spec.analysis.fail_on_violation:
            raise AnalysisError(self._analysis)

    def _record_violations(self, report: AnalysisReport) -> None:
        """Mirror violations into the tracer (exported as instant events)."""
        if not self.telemetry.enabled:
            return
        for violation in report.violations:
            self.telemetry.tracer.record(
                f"violation:{violation.check}",
                violation.time,
                violation.time,
                category="violation",
                domain=violation.domain,
                check=violation.check,
                severity=violation.severity,
                source=violation.source,
                message=violation.message,
            )

    # ------------------------------------------------------------------ artifacts
    def export_trace(self, path: Union[str, Path]) -> Dict[str, Any]:
        """Write a Chrome-trace JSON of whatever has executed so far."""
        return self.telemetry.export_trace(
            path,
            trainer=self._trainer,
            serving_engine=self._serving_engine,
            metadata={
                "dataset": self.spec.dataset,
                "model": self.spec.model,
                "method": self.spec.method,
            },
        )

    def export_artifacts(self, report: RunReport) -> None:
        """Honor the spec's telemetry output paths (trace / report JSON)."""
        tel = self.spec.telemetry
        if tel.trace_path:
            self.export_trace(tel.trace_path)
        if tel.report_path:
            report.save(tel.report_path)


__all__ = ["COLLECTIVE_KEYS", "Engine", "RunReport"]
