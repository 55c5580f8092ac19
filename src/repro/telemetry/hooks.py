"""The callback layer: lifecycle hooks decoupled from any exporter.

Trainers (:class:`~repro.baselines.base.DGNNTrainerBase` and its PiPAD /
distributed / pipeline subclasses), the engine and the serving schedulers
emit lifecycle events — phases, epochs, frames, serving requests, batches
and deltas — against the :class:`TelemetryCallback` interface, a null
object whose methods are all no-ops, so the execution machinery never
imports a tracer, a metrics registry or an exporter.  The engine attaches a
:class:`CallbackList` fanning out to whichever sinks the run's
``TelemetrySpec`` asked for; code paths that run outside the engine keep the
default no-op callback and pay one virtual call per event.

Per-op facts (datapipe stages, feature-cache lookups, pipeline bubbles,
collectives) are not hooks: they are tagged on the timeline ops that carry
them and projected into spans and metrics after the run
(:mod:`repro.telemetry.runtime`).

Every timestamp crossing this interface is **simulated** time (the device /
group clock), never wall time — that is what keeps trace exports
deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.results import EpochMetrics
    from repro.serving.metrics import BatchRecord, RequestRecord
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.spans import SpanTracer


class TelemetryCallback:
    """Instrumentation interface; the base class is the no-op null object.

    Timestamps (``at`` / ``start`` / ``end``) are simulated seconds on the
    emitting phase's clock: training events live on the trainer's device
    (group) clock, serving events on the serving device clock.
    """

    # -- run lifecycle (engine) ---------------------------------------------
    def on_phase_start(self, phase: str, at: float) -> None:
        """A lifecycle phase (``prepare`` / ``train`` / ``serve``) opened."""

    def on_phase_end(self, phase: str, at: float) -> None:
        """A lifecycle phase closed."""

    # -- training (trainers) ------------------------------------------------
    def on_epoch_start(self, epoch: int, at: float) -> None:
        """One training epoch began at simulated time ``at``."""

    def on_epoch_end(
        self, epoch: int, metrics: "EpochMetrics", start: float, end: float
    ) -> None:
        """One training epoch finished; ``metrics`` is its record."""

    def on_frame(
        self, frame_index: int, epoch: int, start: float, end: float, loss: float
    ) -> None:
        """One frame's forward/backward/update completed."""

    # -- serving (schedulers) -----------------------------------------------
    def on_request(self, record: "RequestRecord") -> None:
        """One serving request completed."""

    def on_batch(self, record: "BatchRecord") -> None:
        """One serving micro-batch completed."""

    def on_delta(self, version: int, num_touched: int, at: float) -> None:
        """One graph delta was ingested."""


#: module-level no-op instance: the default hook target of every emitter
NULL_CALLBACK = TelemetryCallback()

#: hook-method names (used by the fan-out list and the registry tests)
HOOK_NAMES = tuple(
    name for name in vars(TelemetryCallback) if name.startswith("on_")
)


class CallbackList(TelemetryCallback):
    """Fans every hook out to an ordered list of callbacks."""

    def __init__(self) -> None:
        self.callbacks: List[TelemetryCallback] = []

    def add(self, callback: TelemetryCallback) -> "CallbackList":
        self.callbacks.append(callback)
        return self

    def __len__(self) -> int:
        return len(self.callbacks)

    def __iter__(self):
        return iter(self.callbacks)


def _fan_out(name: str) -> Callable[..., None]:
    def method(self: CallbackList, *args: Any, **kwargs: Any) -> None:
        for callback in self.callbacks:
            getattr(callback, name)(*args, **kwargs)

    method.__name__ = name
    return method


for _name in HOOK_NAMES:
    setattr(CallbackList, _name, _fan_out(_name))


# ---------------------------------------------------------------------- sinks
#: registered callback kinds: name -> description.  ``TelemetrySpec.callbacks``
#: is validated against these names; ``python -m repro list`` shows them.
CALLBACK_REGISTRY: Dict[str, str] = {
    "tracing": "feeds lifecycle spans into the span tracer (active by default)",
    "metrics": "feeds live counters/histograms into the metrics registry (active by default)",
    "logging": "prints one progress line per phase/epoch/delta",
}

#: phase name -> clock domain its spans live on (see telemetry.spans)
_PHASE_DOMAINS: Dict[str, str] = {"prepare": "train", "train": "train", "serve": "serve"}


class TracingCallback(TelemetryCallback):
    """Feeds lifecycle/epoch/frame/request/batch events into a span tracer."""

    def __init__(self, tracer: "SpanTracer") -> None:
        self.tracer = tracer

    def on_phase_start(self, phase: str, at: float) -> None:
        self.tracer.begin(
            phase, at, category="phase", domain=_PHASE_DOMAINS.get(phase, "train")
        )

    def on_phase_end(self, phase: str, at: float) -> None:
        self.tracer.end(phase, at)

    def on_epoch_start(self, epoch: int, at: float) -> None:
        self.tracer.begin(f"epoch_{epoch}", at, category="epoch", domain="train")

    def on_epoch_end(
        self, epoch: int, metrics: "EpochMetrics", start: float, end: float
    ) -> None:
        self.tracer.end(f"epoch_{epoch}", end)

    def on_frame(
        self, frame_index: int, epoch: int, start: float, end: float, loss: float
    ) -> None:
        self.tracer.record(
            f"frame_{frame_index}",
            start,
            end,
            category="frame",
            domain="train",
            epoch=epoch,
        )

    def on_request(self, record: "RequestRecord") -> None:
        self.tracer.record(
            f"request_{record.request_id}",
            record.arrival_time,
            record.completion_time,
            category="request",
            domain="serve",
            batch_id=record.batch_id,
            num_nodes=record.num_nodes,
        )

    def on_batch(self, record: "BatchRecord") -> None:
        self.tracer.record(
            f"batch_{record.batch_id}",
            record.formed_time,
            record.completion_time,
            category="batch",
            domain="serve",
            size=record.size,
            s_per=record.s_per,
        )

    def on_delta(self, version: int, num_touched: int, at: float) -> None:
        self.tracer.record(
            f"delta_v{version}",
            at,
            at,
            category="delta",
            domain="serve",
            num_touched=num_touched,
        )


class MetricsCallback(TelemetryCallback):
    """Accumulates live counters/histograms into a metrics registry."""

    def __init__(self, registry: "MetricsRegistry") -> None:
        self.registry = registry

    def on_epoch_end(
        self, epoch: int, metrics: "EpochMetrics", start: float, end: float
    ) -> None:
        self.registry.counter("train.epochs").inc()
        self.registry.histogram("train.epoch_seconds").observe(end - start)

    def on_frame(
        self, frame_index: int, epoch: int, start: float, end: float, loss: float
    ) -> None:
        self.registry.counter("train.frames").inc()

    def on_request(self, record: "RequestRecord") -> None:
        self.registry.counter("serving.requests").inc()
        self.registry.histogram("serving.latency_ms").observe(record.latency * 1e3)

    def on_batch(self, record: "BatchRecord") -> None:
        self.registry.counter("serving.batches").inc()
        self.registry.histogram("serving.batch_size").observe(record.size)
        self.registry.counter("serving.cache_hits").inc(record.cache_hits)
        self.registry.counter("serving.cache_misses").inc(record.cache_misses)

    def on_delta(self, version: int, num_touched: int, at: float) -> None:
        self.registry.counter("serving.deltas").inc()
        self.registry.counter("serving.rows_touched").inc(num_touched)


class LoggingCallback(TelemetryCallback):
    """Prints one progress line per coarse event (opt-in via the spec)."""

    def on_phase_start(self, phase: str, at: float) -> None:
        print(f"[telemetry] phase {phase} started @ {at * 1e3:.2f} ms")

    def on_phase_end(self, phase: str, at: float) -> None:
        print(f"[telemetry] phase {phase} finished @ {at * 1e3:.2f} ms")

    def on_epoch_end(
        self, epoch: int, metrics: "EpochMetrics", start: float, end: float
    ) -> None:
        print(
            f"[telemetry] epoch {epoch}: {(end - start) * 1e3:.2f} ms simulated, "
            f"loss {metrics.loss:.4f}"
        )

    def on_delta(self, version: int, num_touched: int, at: float) -> None:
        print(
            f"[telemetry] delta v{version}: {num_touched} rows @ {at * 1e3:.2f} ms"
        )


__all__ = [
    "CALLBACK_REGISTRY",
    "CallbackList",
    "HOOK_NAMES",
    "LoggingCallback",
    "MetricsCallback",
    "NULL_CALLBACK",
    "TelemetryCallback",
    "TracingCallback",
]
