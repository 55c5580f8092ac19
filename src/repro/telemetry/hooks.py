"""The training lifecycle hooks.

Trainers (:class:`~repro.baselines.base.DGNNTrainerBase` and its PiPAD /
distributed / pipeline subclasses) and the engine emit lifecycle events —
phases, epochs and frames — against the :class:`TelemetryCallback`
interface, a null object whose methods are all no-ops, so the execution
machinery never imports a tracer or an exporter.  The engine attaches a
:class:`CallbackList` holding the tracing sink; code paths that run outside
the engine keep the default no-op callback and pay one virtual call per
event.

Serving keeps no hooks: its request, batch, delta and scale spans and every
metric are projections of the run's records, made after the run
(:mod:`repro.telemetry.runtime`), as are the per-op facts tagged on the
timelines (datapipe stages, feature-cache lookups, pipeline bubbles,
collectives).

Every timestamp crossing this interface is **simulated** time (the device /
group clock), never wall time — that is what keeps trace exports
deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.results import EpochMetrics
    from repro.telemetry.spans import SpanTracer


class TelemetryCallback:
    """Instrumentation interface; the base class is the no-op null object.

    Timestamps (``at`` / ``start`` / ``end``) are simulated seconds on the
    emitting phase's clock: training events live on the trainer's device
    (group) clock, the ``serve`` phase on the serving device clock.
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
class TracingCallback(TelemetryCallback):
    """Feeds phase/epoch/frame events into a span tracer."""

    def __init__(self, tracer: "SpanTracer") -> None:
        self.tracer = tracer

    def on_phase_start(self, phase: str, at: float) -> None:
        # ``prepare`` and ``train`` run on the training clock
        domain = "serve" if phase == "serve" else "train"
        self.tracer.begin(phase, at, category="phase", domain=domain)

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


__all__ = [
    "CallbackList",
    "HOOK_NAMES",
    "NULL_CALLBACK",
    "TelemetryCallback",
    "TracingCallback",
]
