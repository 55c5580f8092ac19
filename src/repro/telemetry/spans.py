"""Nested span tracing on the simulated clock.

A :class:`Span` is one named interval — the engine's ``train`` phase, one
epoch, one frame, one serving request — positioned on the *simulated* time
axis of the run.  Using simulated rather than wall time keeps traces
deterministic (two runs of the same spec produce byte-identical exports,
which the golden trace test locks in) and lines the spans up with the
timeline ops of the simulated devices, so a Chrome-trace view shows the
lifecycle spans directly above the kernels/copies/collectives they cover.

Spans carry a *domain* (``"train"`` or ``"serve"``): the two phases run on
independent simulated clocks that both start at zero, and the exporter lays
the domains out sequentially so they do not overlap visually.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: clock domains a span can live on (independent simulated time axes)
SPAN_DOMAINS: Tuple[str, ...] = ("train", "serve")


@dataclass
class Span:
    """One named interval on a simulated clock."""

    name: str
    category: str
    domain: str
    start: float
    end: Optional[float] = None
    depth: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None


class SpanTracer:
    """Collects nested spans; explicit timestamps, no wall clock anywhere.

    ``begin``/``end`` maintain a stack (lifecycle phases, epochs);
    :meth:`record` appends an already-closed leaf span (frames, requests,
    bubbles) at the current depth.  Spans left open — a trace exported
    mid-run, a phase that never finished — are closed by
    :meth:`close_all` at export time.
    """

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._stack: List[Span] = []

    # ------------------------------------------------------------------ recording
    def begin(
        self,
        name: str,
        at: float,
        *,
        category: str = "phase",
        domain: str = "train",
        **attrs: Any,
    ) -> Span:
        """Open a nested span at simulated time ``at``."""
        if domain not in SPAN_DOMAINS:
            raise ValueError(f"unknown span domain {domain!r}; valid: {SPAN_DOMAINS}")
        span = Span(
            name=name,
            category=category,
            domain=domain,
            start=at,
            depth=len(self._stack),
            attrs=dict(attrs),
        )
        self._spans.append(span)
        self._stack.append(span)
        return span

    def end(self, name: str, at: float) -> Span:
        """Close the innermost open span called ``name``.

        Any spans nested inside it that are still open are closed at the
        same instant, so a missed ``end`` cannot corrupt the stack.
        """
        if not any(span.name == name for span in self._stack):
            raise ValueError(f"no open span named {name!r}")
        while self._stack:
            span = self._stack.pop()
            span.end = max(at, span.start)
            if span.name == name:
                return span
        raise AssertionError("unreachable")  # pragma: no cover

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        category: str = "span",
        domain: str = "train",
        **attrs: Any,
    ) -> Span:
        """Append one already-closed leaf span."""
        if domain not in SPAN_DOMAINS:
            raise ValueError(f"unknown span domain {domain!r}; valid: {SPAN_DOMAINS}")
        span = Span(
            name=name,
            category=category,
            domain=domain,
            start=start,
            end=max(end, start),
            depth=len(self._stack),
            attrs=dict(attrs),
        )
        self._spans.append(span)
        return span

    def close_all(self) -> None:
        """Close every still-open span at the latest closed-span end."""
        horizon = self.extent()
        while self._stack:
            span = self._stack.pop()
            span.end = max(horizon, span.start)

    # ------------------------------------------------------------------ queries
    @property
    def spans(self) -> List[Span]:
        """All spans in recording order (open spans included)."""
        return list(self._spans)

    def extent(self) -> float:
        """Latest closed-span end time."""
        return max((s.end for s in self._spans if s.end is not None), default=0.0)

    def reset(self) -> None:
        self._spans.clear()
        self._stack.clear()


__all__ = ["SPAN_DOMAINS", "Span", "SpanTracer"]
