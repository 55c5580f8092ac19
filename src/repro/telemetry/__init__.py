"""Observability for the reproduction: spans, metrics, hooks, exporters.

The subsystem turns every run into a measured claim, the way the paper's own
arguments are measurement-shaped (per-stage breakdowns in Figs. 3/4, memory
requests in Fig. 5, utilization in Table 2).  Metrics and serving spans are
projections of what the run recorded:

- :mod:`repro.telemetry.spans` — nested spans on the simulated clock;
- :mod:`repro.telemetry.hooks` — the training lifecycle hooks (phases,
  epochs, frames) trainers emit through, decoupled from any exporter;
- :mod:`repro.telemetry.chrome_trace` — Chrome-trace-event JSON export (one
  Perfetto track per device, one thread per resource);
- :mod:`repro.telemetry.runtime` — the per-run binding the engine owns; it
  projects the per-op facts tagged on the device timelines (datapipe
  stages, cache lookups, bubbles, collectives) and the serving report's
  request, batch and delta records into spans, and builds the flat metrics
  snapshot from those totals and the result records after the run;
- :mod:`repro.telemetry.persistence` — strict-JSON helpers for the NaN
  convention (non-finite floats round-trip as marker strings).
"""

from repro.telemetry.chrome_trace import (
    EXPORTER_REGISTRY,
    TraceTrack,
    build_chrome_trace,
    export_chrome_trace,
)
from repro.telemetry.hooks import (
    CallbackList,
    NULL_CALLBACK,
    TelemetryCallback,
    TracingCallback,
)
from repro.telemetry.persistence import restore_floats, sanitize_floats
from repro.telemetry.runtime import Telemetry
from repro.telemetry.spans import SPAN_DOMAINS, Span, SpanTracer

__all__ = [
    "CallbackList",
    "EXPORTER_REGISTRY",
    "NULL_CALLBACK",
    "SPAN_DOMAINS",
    "Span",
    "SpanTracer",
    "Telemetry",
    "TelemetryCallback",
    "TraceTrack",
    "TracingCallback",
    "build_chrome_trace",
    "export_chrome_trace",
    "restore_floats",
    "sanitize_floats",
]
