"""Observability for the reproduction: spans, metrics, hooks, exporters.

The subsystem turns every run into a measured claim, the way the paper's own
arguments are measurement-shaped (per-stage breakdowns in Figs. 3/4, memory
requests in Fig. 5, utilization in Table 2):

- :mod:`repro.telemetry.spans` — nested spans on the simulated clock;
- :mod:`repro.telemetry.metrics` — one counters/gauges/histograms registry
  unifying the scattered quantitative surfaces behind ``snapshot()``;
- :mod:`repro.telemetry.hooks` — the lifecycle callback layer trainers and
  serving schedulers emit phase/epoch/frame/request/batch/delta events
  through, decoupled from any exporter;
- :mod:`repro.telemetry.chrome_trace` — Chrome-trace-event JSON export (one
  Perfetto track per device, one thread per resource);
- :mod:`repro.telemetry.runtime` — the per-run binding the engine owns; it
  projects the per-op facts tagged on the device timelines (datapipe
  stages, cache lookups, bubbles, collectives) into spans and metrics after
  the run;
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
    CALLBACK_REGISTRY,
    CallbackList,
    LoggingCallback,
    MetricsCallback,
    NULL_CALLBACK,
    TelemetryCallback,
    TracingCallback,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    HISTOGRAM_PERCENTILES,
    MetricsRegistry,
)
from repro.telemetry.persistence import restore_floats, sanitize_floats
from repro.telemetry.runtime import Telemetry
from repro.telemetry.spans import SPAN_DOMAINS, Span, SpanTracer

__all__ = [
    "CALLBACK_REGISTRY",
    "CallbackList",
    "Counter",
    "EXPORTER_REGISTRY",
    "Gauge",
    "HISTOGRAM_PERCENTILES",
    "Histogram",
    "LoggingCallback",
    "MetricsCallback",
    "MetricsRegistry",
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
