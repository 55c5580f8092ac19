"""The telemetry runtime: the tracer, the training hooks and the projections.

:class:`Telemetry` is what the :class:`~repro.api.engine.Engine` owns per
run.  It attaches the tracing sink to the trainer, whose hooks carry the
phase, epoch and frame lifecycle.  Everything else is a *projection of the
run's records*, made after the run:

- per-op facts (:func:`project_timelines`): ops carry the facts they stand
  for — a datapipe stage (``attrs["stage"]``), the feature-cache lookup on
  an item's gather op (``cache_*``), a pipeline stall on the first chained
  kernel (``bubble_from``), a collective's kind and bytes — and the
  projection turns them into the prefetch / cache / bubble spans of the
  Chrome trace and the ``prefetch.*``, ``memory.cache.*``, ``pipeline.*``
  and ``collective.*`` metrics.  The timelines come from
  :func:`~repro.analysis.base.collect_artifacts`, the device walk the
  sanitizer uses, so trace tracks, projection and sanitizer name devices
  alike (``gpu{i}`` / ``serve_gpu{i}``);
- serving (:func:`project_serving`): the request, batch and delta records
  of the final :class:`~repro.serving.metrics.ServingReport` and a fleet's
  scale events become spans on the serve clock;
- metrics (:meth:`Telemetry.collect`): the projection totals, the training
  result and the serving report flatten into one ``name -> value`` dict,
  the run report's metrics snapshot.

Everything here is duck-typed against the execution layer (``trainer.hooks``,
``trainer.group``, ``engine.scale_events`` …) so the runtime works for any
registered device/serving topology without importing their classes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.base import collect_artifacts
from repro.telemetry.chrome_trace import TraceTrack, export_chrome_trace
import numpy as np

from repro.telemetry.hooks import CallbackList, TracingCallback
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


def project_serving(serving: Any, scale_events: Iterable[Any] = ()) -> List[Span]:
    """Serve-clock spans of a serving report's records and a fleet's scale
    events: one span per request, batch and ingested delta, and a zero-width
    ``fleet_scale_*`` span per autoscale decision."""
    spans: List[Span] = []
    if serving is None:
        return spans
    metrics = serving.metrics
    for record in metrics.requests:
        spans.append(
            Span(
                f"request_{record.request_id}",
                "request",
                "serve",
                record.arrival_time,
                max(record.completion_time, record.arrival_time),
                attrs={"batch_id": record.batch_id, "num_nodes": record.num_nodes},
            )
        )
    for record in metrics.batches:
        spans.append(
            Span(
                f"batch_{record.batch_id}",
                "batch",
                "serve",
                record.formed_time,
                max(record.completion_time, record.formed_time),
                attrs={"size": record.size, "s_per": record.s_per},
            )
        )
    for record in metrics.deltas:
        spans.append(
            Span(
                f"delta_v{record.version}",
                "delta",
                "serve",
                record.time,
                record.time,
                attrs={"num_touched": record.num_touched},
            )
        )
    for event in scale_events:
        spans.append(
            Span(
                f"fleet_scale_{event.direction}_to_{event.active_replicas}",
                "scale",
                "serve",
                event.at,
                event.at,
                attrs={"p99_ms": event.p99_ms},
            )
        )
    return spans


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Count, sum, mean, p50 and p99 of ``values``; the mean and the
    percentiles are NaN when there is nothing to summarize (an absent
    measurement must not read as a perfect one)."""
    values = [float(value) for value in values]
    count = len(values)
    total = float(sum(values))
    nan = float("nan")
    out = {"count": float(count), "sum": total, "mean": total / count if count else nan}
    for suffix, q in (("p50", 50.0), ("p99", 99.0)):
        out[suffix] = float(np.percentile(values, q)) if count else nan
    return out


class Telemetry:
    """Tracer and training hooks for one engine run."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self.tracer = SpanTracer()
        self.hooks = CallbackList()
        if enabled:
            # The phase, epoch and frame spans of the trace export.
            self.hooks.add(TracingCallback(self.tracer))

    @classmethod
    def from_spec(cls, spec: Optional[Any]) -> "Telemetry":
        """Build from a ``TelemetrySpec`` (or None -> disabled)."""
        if spec is None:
            return cls(enabled=False)
        return cls(enabled=spec.enabled)

    # ------------------------------------------------------------------ attachment
    def attach_trainer(self, trainer: Any) -> None:
        """Point a trainer's hook emissions at this runtime."""
        trainer.hooks = self.hooks

    # ------------------------------------------------------------------ export
    def export_trace(
        self,
        path: str,
        *,
        trainer: Any = None,
        serving_engine: Any = None,
        serving: Any = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Write the Chrome-trace JSON covering whatever machinery ran.

        ``serving`` is the serving report whose records become the request,
        batch and delta spans.
        """
        timelines = collect_artifacts(trainer, serving_engine).timelines
        tracks = [
            TraceTrack(name, timeline, domain=domain)
            for name, domain, timeline in timelines
        ]
        spans: List[Span] = []
        if self.enabled:
            spans = project_serving(
                serving, getattr(serving_engine, "scale_events", ())
            ) + project_timelines(timelines)[1]
        self.tracer.close_all()
        return export_chrome_trace(
            path, tracks, self.tracer.spans + spans, metadata=metadata
        )

    # ------------------------------------------------------------------ metrics
    def collect(
        self, report: Any, *, trainer: Any = None, serving_engine: Any = None
    ) -> Dict[str, float]:
        """The run's flat, name-sorted metrics snapshot.

        Built from records alone: the timeline projection (prefetch, cache,
        bubble and collective totals of ``trainer`` and ``serving_engine``),
        the training result (breakdown, extras, per-epoch seconds), the
        per-kernel category totals and the serving report (summary, request
        latencies, batch sizes, deltas).  Collecting twice gives the same
        dict.
        """
        if not self.enabled:
            return {}
        out, _ = project_timelines(
            collect_artifacts(trainer, serving_engine).timelines
        )

        def put(values: Dict[str, float], prefix: str = "") -> None:
            for key, value in values.items():
                out[prefix + key] = float(value)

        group = getattr(trainer, "group", None)
        if group is not None:
            put(
                {
                    f"collective.{kind}.seconds": seconds
                    for kind, seconds in group.collective_seconds.items()
                }
            )
        training = getattr(report, "training", None)
        if training is not None:
            put(training.breakdown, "train.breakdown.")
            put(training.category_seconds, "train.category_seconds.")
            put(training.extras, "train.extras.")
            epochs = len(training.epoch_metrics)
            put(
                summarize([m.simulated_seconds for m in training.epoch_metrics]),
                "train.epoch_seconds.",
            )
            put(
                {
                    "train.epochs": epochs,
                    "train.frames": epochs * trainer.frames.num_frames,
                    "train.simulated_seconds": training.simulated_seconds,
                    "train.steady_epoch_seconds": training.steady_epoch_seconds,
                    "train.final_loss": training.final_loss,
                    "train.gpu_utilization": training.gpu_utilization,
                    "train.sm_utilization": training.sm_utilization,
                    "train.kernel_launches": training.kernel_launches,
                    "train.peak_memory_bytes": training.peak_memory_bytes,
                }
            )
        serving = getattr(report, "serving", None)
        if serving is not None:
            metrics = serving.metrics
            batches = metrics.batches
            put(metrics.summary(), "serving.summary.")
            put(serving.breakdown, "serving.breakdown.")
            put(serving.reuse_stats, "serving.reuse.")
            put(serving.extras, "serving.extras.")
            put(summarize([r.latency * 1e3 for r in metrics.requests]), "serving.latency_ms.")
            put(summarize([b.size for b in batches]), "serving.batch_size.")
            put(
                {
                    "serving.requests": metrics.num_requests,
                    "serving.batches": len(batches),
                    "serving.cache_hits": sum(b.cache_hits for b in batches),
                    "serving.cache_misses": sum(b.cache_misses for b in batches),
                    "serving.deltas": metrics.deltas_ingested,
                    "serving.rows_touched": metrics.rows_touched,
                    "serving.simulated_seconds": serving.simulated_seconds,
                    "serving.gpu_utilization": serving.gpu_utilization,
                    "serving.peak_memory_bytes": serving.peak_memory_bytes,
                }
            )
        analysis = getattr(report, "extras", {}).get("analysis")
        if analysis is not None:
            put(
                {
                    "analysis.num_checks": len(analysis.get("checks", [])),
                    "analysis.num_violations": analysis.get("num_violations", 0),
                    "analysis.num_errors": analysis.get("num_errors", 0),
                    "analysis.num_warnings": analysis.get("num_warnings", 0),
                }
            )
        return dict(sorted(out.items()))


__all__ = ["Telemetry"]
