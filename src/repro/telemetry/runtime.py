"""The telemetry runtime: one object binding tracer, registry and hooks.

:class:`Telemetry` is what the :class:`~repro.api.engine.Engine` owns per
run.  It builds the callback fan-out a ``TelemetrySpec`` asks for and
attaches it to whatever machinery the spec resolved to (any trainer, the
serving scheduler or every replica of a sharded engine).  Those hooks carry
lifecycle events only.

Everything per-op is a *projection of the timelines* after the run
(:func:`project_timelines`): ops carry the facts they stand for — a datapipe
stage (``attrs["stage"]``), the feature-cache lookup on an item's gather op
(``cache_*``), a pipeline stall on the first chained kernel
(``bubble_from``), a collective's kind and bytes — and the projection turns
them into the prefetch / cache / bubble spans of the Chrome trace and the
``prefetch.*``, ``memory.cache.*``, ``pipeline.*`` and ``collective.*``
metrics.  The timelines come from
:func:`~repro.analysis.base.collect_artifacts`, the device walk the
sanitizer uses, so trace tracks, projection and sanitizer name devices
alike (``gpu{i}`` / ``serve_gpu{i}``).  :meth:`Telemetry.collect` folds the
projection and the end-of-run result records into the metrics registry, so
``snapshot()`` is the single flat quantitative view of the run.

Everything here is duck-typed against the execution layer (``trainer.hooks``,
``trainer.group``, ``engine.replicas`` …) so the runtime works for any
registered device/serving topology without importing their classes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.base import collect_artifacts
from repro.telemetry.chrome_trace import TraceTrack, export_chrome_trace
from repro.telemetry.hooks import (
    CALLBACK_REGISTRY,
    CallbackList,
    LoggingCallback,
    MetricsCallback,
    TracingCallback,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Span, SpanTracer

#: op attrs that mark an op as carrying a telemetry fact
_FACT_KEYS = frozenset({"stage", "bubble_from", "collective"})
#: the feature-cache lookup a gather op carries (``cache_<name>`` attrs)
_CACHE_FACTS = ("hits", "misses", "gpu_bytes", "pinned_bytes", "miss_bytes")


def project_timelines(
    timelines: Sequence[Tuple[str, str, Any]],
) -> Tuple[Dict[str, float], List[Span]]:
    """Totals and spans of the per-op facts on ``(name, domain, timeline)``s.

    Facts add up in submission (``uid``) order across every timeline, so a
    float total sums in the order its ops were scheduled.  A collective
    counts once: device 0's op for a group collective, the ``_send`` op for
    a point-to-point transfer; only training-domain collectives count (the
    trainer's device group is the one whose seconds the report carries).
    Each timeline's attrs column is scanned for the fact keys, and a view
    is built only for the ops that carry one.
    """
    tagged = []
    devices: Dict[str, int] = {}
    for _, domain, timeline in timelines:
        device = devices.get(domain, 0)
        devices[domain] = device + 1
        columns = timeline.columns
        tagged.extend(
            (columns.uid[row], domain, device, columns.view(row))
            for row in columns.rows_with(*_FACT_KEYS)
        )
    tagged.sort(key=lambda entry: entry[0])

    totals: Dict[str, float] = {}
    spans: List[Span] = []

    def add(name: str, amount: float) -> None:
        totals[name] = totals.get(name, 0.0) + amount

    for _, domain, device, op in tagged:
        attrs = op.attrs
        stage = attrs.get("stage")
        if stage is not None:
            item = op.label[len(stage) + 1 :]
            add(f"prefetch.{stage}.count", 1.0)
            add(f"prefetch.{stage}.seconds", op.end - op.start)
            spans.append(
                Span(
                    f"prefetch_{stage}_{item}",
                    "prefetch",
                    domain,
                    op.start,
                    op.end,
                    attrs={"stage": stage, "item": item, "device": device},
                )
            )
            if "cache_hits" in attrs:
                cache = {name: attrs[f"cache_{name}"] for name in _CACHE_FACTS}
                add("memory.cache.accesses", cache["hits"] + cache["misses"])
                for name, value in cache.items():
                    add(f"memory.cache.{name}", value)
                cache["device"] = device
                spans.append(
                    Span(f"cache_{item}", "cache", domain, op.start, op.start, attrs=cache)
                )
        bubble_from = attrs.get("bubble_from")
        if bubble_from is not None:
            add("pipeline.bubbles", 1.0)
            add("pipeline.bubble_seconds", op.start - bubble_from)
            spans.append(
                Span("bubble", "bubble", domain, bubble_from, op.start, attrs={"stage": device})
            )
        kind = attrs.get("collective")
        if kind is not None and domain == "train" and (
            op.label.endswith("_send") if kind == "peer_transfer" else device == 0
        ):
            add(f"collective.{kind}.count", 1.0)
            add(f"collective.{kind}.bytes", attrs["bytes"])
    return totals, spans


class Telemetry:
    """Tracer + registry + callback fan-out for one engine run."""

    def __init__(
        self,
        *,
        enabled: bool = True,
        callbacks: Sequence[str] = (),
    ) -> None:
        unknown = set(callbacks) - set(CALLBACK_REGISTRY)
        if unknown:
            raise ValueError(
                f"unknown telemetry callback(s) {sorted(unknown)}; "
                f"valid: {', '.join(sorted(CALLBACK_REGISTRY))}"
            )
        self.enabled = enabled
        self.tracer = SpanTracer()
        self.registry = MetricsRegistry()
        self.hooks = CallbackList()
        if enabled:
            # The tracing and metrics sinks are what the trace export and the
            # report's metrics snapshot are made of, so they are always on.
            self.hooks.add(TracingCallback(self.tracer))
            self.hooks.add(MetricsCallback(self.registry))
            if "logging" in callbacks:
                self.hooks.add(LoggingCallback())

    @classmethod
    def from_spec(cls, spec: Optional[Any]) -> "Telemetry":
        """Build from a ``TelemetrySpec`` (or None -> disabled)."""
        if spec is None:
            return cls(enabled=False)
        return cls(enabled=spec.enabled, callbacks=spec.callbacks)

    # ------------------------------------------------------------------ attachment
    def attach_trainer(self, trainer: Any) -> None:
        """Point a trainer's hook emissions at this runtime."""
        trainer.hooks = self.hooks

    def attach_serving(self, engine: Any) -> None:
        """Point a serving engine (single scheduler or sharded replicas)."""
        engine.hooks = self.hooks
        for replica in getattr(engine, "replicas", ()):
            replica.hooks = self.hooks

    # ------------------------------------------------------------------ export
    def export_trace(
        self,
        path: str,
        *,
        trainer: Any = None,
        serving_engine: Any = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Write the Chrome-trace JSON covering whatever machinery ran."""
        timelines = collect_artifacts(trainer, serving_engine).timelines
        tracks = [
            TraceTrack(name, timeline, domain=domain)
            for name, domain, timeline in timelines
        ]
        op_spans = project_timelines(timelines)[1] if self.enabled else []
        self.tracer.close_all()
        return export_chrome_trace(
            path, tracks, self.tracer.spans + op_spans, metadata=metadata
        )

    # ------------------------------------------------------------------ unification
    def collect(
        self, report: Any, *, trainer: Any = None, serving_engine: Any = None
    ) -> Dict[str, float]:
        """Fold a run report's scalar surfaces into the registry and snapshot.

        This is the unification point: the timeline projection (prefetch,
        cache, bubble and collective totals of ``trainer`` and
        ``serving_engine``), the training breakdown and extras, the
        per-kernel category totals and the serving summary all land as
        gauges next to the live counters/histograms the callbacks
        accumulated.  Every value is *set*, so collecting twice is
        idempotent.
        """
        if not self.enabled:
            return {}
        registry = self.registry
        totals, _ = project_timelines(
            collect_artifacts(trainer, serving_engine).timelines
        )
        registry.set_gauges(totals)
        group = getattr(trainer, "group", None)
        if group is not None:
            registry.set_gauges(
                {
                    f"collective.{kind}.seconds": seconds
                    for kind, seconds in group.collective_seconds.items()
                }
            )
        training = getattr(report, "training", None)
        if training is not None:
            registry.set_gauges(training.breakdown, prefix="train.breakdown.")
            registry.set_gauges(
                training.category_seconds, prefix="train.category_seconds."
            )
            registry.set_gauges(training.extras, prefix="train.extras.")
            registry.set_gauges(
                {
                    "train.simulated_seconds": training.simulated_seconds,
                    "train.steady_epoch_seconds": training.steady_epoch_seconds,
                    "train.final_loss": training.final_loss,
                    "train.gpu_utilization": training.gpu_utilization,
                    "train.sm_utilization": training.sm_utilization,
                    "train.kernel_launches": float(training.kernel_launches),
                    "train.peak_memory_bytes": float(training.peak_memory_bytes),
                }
            )
        serving = getattr(report, "serving", None)
        if serving is not None:
            registry.set_gauges(serving.metrics.summary(), prefix="serving.summary.")
            registry.set_gauges(serving.breakdown, prefix="serving.breakdown.")
            registry.set_gauges(serving.reuse_stats, prefix="serving.reuse.")
            registry.set_gauges(serving.extras, prefix="serving.extras.")
            registry.set_gauges(
                {
                    "serving.simulated_seconds": serving.simulated_seconds,
                    "serving.gpu_utilization": serving.gpu_utilization,
                    "serving.peak_memory_bytes": float(serving.peak_memory_bytes),
                }
            )
        analysis = getattr(report, "extras", {}).get("analysis")
        if analysis is not None:
            registry.set_gauges(
                {
                    "analysis.num_checks": float(len(analysis.get("checks", []))),
                    "analysis.num_violations": float(
                        analysis.get("num_violations", 0)
                    ),
                    "analysis.num_errors": float(analysis.get("num_errors", 0)),
                    "analysis.num_warnings": float(analysis.get("num_warnings", 0)),
                }
            )
        return registry.snapshot()


__all__ = ["Telemetry"]
