"""Chrome-trace-event JSON export of simulated runs.

The exporter maps every simulated :class:`~repro.gpu.timeline.Timeline`
onto one Perfetto *process* (one track group per device) with one *thread*
per resource — compute, the two PCIe copy engines, the host CPU and, for
multi-GPU runs, the peer link — so a 1F1B pipeline schedule, its bubbles
and the p2p frame handoffs are visually inspectable at
``https://ui.perfetto.dev`` (or ``chrome://tracing``).  Lifecycle spans
from the :class:`~repro.telemetry.spans.SpanTracer` (phases, epochs,
frames, serving requests/batches) render as a dedicated ``run`` process
above the device tracks; the spans projected from the timelines (pipeline
bubbles, datapipe prefetch stages, feature-cache markers) render on their
device's ``bubble`` / ``prefetch`` threads.

All timestamps are simulated seconds converted to trace microseconds; the
train and serve phases run on independent simulated clocks both starting
at zero, so serve-domain content is shifted to start where the train
domain ends.  Output is strict JSON serialized with sorted keys and no
wall-clock anywhere, which makes exports byte-identical across runs of the
same spec (the golden-trace test relies on this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.gpu.timeline import RESOURCES, Timeline
from repro.telemetry.spans import Span

#: registered trace exporters (shown by ``python -m repro list``)
EXPORTER_REGISTRY: Dict[str, str] = {
    "chrome-trace": (
        "Chrome-trace-event JSON (open in Perfetto): one track per device, "
        "one thread per resource, lifecycle spans on a 'run' track"
    ),
    "run-report": (
        "lossless JSON persistence of the RunReport (spec + training + "
        "serving results + metrics snapshot)"
    ),
}

#: seconds -> trace microseconds
_US = 1e6

#: pid 0 thread layout for lifecycle and serving spans, by span category
_RUN_PID = 0
_RUN_THREADS: Dict[str, str] = {
    "phase": "lifecycle",
    "epoch": "lifecycle",
    "frame": "lifecycle",
    "request": "requests",
    "batch": "batches",
    "delta": "deltas",
    "scale": "scaling",
    "violation": "violations",
}
#: span category -> thread reserved for it on the owning device's track:
#: pipeline bubbles, datapipe prefetch stages and each item's cache lookup
_DEVICE_THREADS: Dict[str, str] = {
    "bubble": "bubble",
    "prefetch": "prefetch",
    "cache": "prefetch",
}


@dataclass
class TraceTrack:
    """One device timeline headed for export."""

    name: str
    timeline: Timeline
    domain: str = "train"


def _jsonable(value: Any) -> Any:
    """Trace args must be plain JSON: leave scalars, stringify the rest."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") else repr(value)
    return str(value)


def _track_resources(timeline: Timeline) -> List[str]:
    """Resources of one timeline in stable order: canonical first, extras
    (e.g. ``peer_link``) sorted after."""
    present = set(timeline.columns.resource)
    ordered = [r for r in RESOURCES if r in present]
    ordered.extend(sorted(present - set(RESOURCES)))
    return ordered


def build_chrome_trace(
    tracks: Sequence[TraceTrack],
    spans: Iterable[Span] = (),
    *,
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the Chrome-trace document (a plain dict, ready for json)."""
    spans = [s for s in spans if s.closed]

    # The serve clock restarts at zero; shift its content past the train
    # domain's extent so the two phases do not overlap on the time axis.
    train_extent = max(
        [t.timeline.makespan() for t in tracks if t.domain == "train"]
        + [s.end for s in spans if s.domain == "train"]
        + [0.0]
    )
    offsets = {"train": 0.0, "serve": train_extent}

    events: List[Dict[str, Any]] = []

    def meta(pid: int, name: str, tid: Optional[int] = None) -> None:
        event: Dict[str, Any] = {
            "ph": "M",
            "pid": pid,
            "tid": 0 if tid is None else tid,
            "name": "process_name" if tid is None else "thread_name",
            "args": {"name": name},
        }
        events.append(event)

    # -- pid 0: the run process (lifecycle and serving spans) ---------------
    run_tids: Dict[str, int] = {}

    def run_tid(thread: str) -> int:
        if thread not in run_tids:
            run_tids[thread] = len(run_tids)
            meta(_RUN_PID, thread, run_tids[thread])
        return run_tids[thread]

    meta(_RUN_PID, "run")
    run_tid("lifecycle")  # always present, always tid 0

    # -- pids 1..N: one process per device track ----------------------------
    track_tids: List[Dict[str, int]] = []
    for index, track in enumerate(tracks):
        pid = index + 1
        meta(pid, track.name)
        tids: Dict[str, int] = {}
        for resource in _track_resources(track.timeline):
            tids[resource] = len(tids)
            meta(pid, resource, tids[resource])
        track_tids.append(tids)

    def device_tid(pid: int, thread: str) -> int:
        tids = track_tids[pid - 1]
        if thread not in tids:
            tids[thread] = len(tids)
            meta(pid, thread, tids[thread])
        return tids[thread]

    # -- X events: one per timeline op --------------------------------------
    for index, track in enumerate(tracks):
        pid = index + 1
        offset = offsets.get(track.domain, 0.0)
        tids = track_tids[index]
        for op in track.timeline.ops:
            args = {key: _jsonable(value) for key, value in op.attrs.items()}
            args["stream"] = op.stream
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": tids[op.resource],
                    "name": op.label,
                    "cat": op.kind,
                    "ts": op.start * _US + offset * _US,
                    "dur": op.duration * _US,
                    "args": args,
                }
            )

    # -- X events: spans ----------------------------------------------------
    domain_track_pids: Dict[str, List[int]] = {}
    for i, t in enumerate(tracks):
        domain_track_pids.setdefault(t.domain, []).append(i + 1)
    for span in spans:
        offset = offsets.get(span.domain, 0.0)
        args = {key: _jsonable(value) for key, value in sorted(span.attrs.items())}
        device_pids = domain_track_pids.get(span.domain, [])
        thread = _DEVICE_THREADS.get(span.category)
        if span.category == "violation":
            # Sanitizer findings are points in time, not intervals: render
            # as global-scope instant events on the run process so Perfetto
            # draws them as flags across every track.
            events.append(
                {
                    "ph": "i",
                    "s": "g",
                    "pid": _RUN_PID,
                    "tid": run_tid(_RUN_THREADS["violation"]),
                    "name": span.name,
                    "cat": span.category,
                    "ts": span.start * _US + offset * _US,
                    "args": args,
                }
            )
            continue
        if thread is not None and device_pids:
            # Bubbles, prefetch stages and cache lookups belong to the device
            # whose timeline holds the op (a bubble's device is its stage).
            device = span.attrs.get("device", span.attrs.get("stage", 0))
            device = device if isinstance(device, int) else 0
            pid = device_pids[device % len(device_pids)]
            tid = device_tid(pid, thread)
        else:
            pid = _RUN_PID
            tid = run_tid(_RUN_THREADS.get(span.category, "lifecycle"))
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "name": span.name,
                "cat": span.category,
                "ts": span.start * _US + offset * _US,
                "dur": span.duration * _US,
                "args": args,
            }
        )

    document: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        document["metadata"] = {k: _jsonable(v) for k, v in sorted(metadata.items())}
    return document


def export_chrome_trace(
    path: str,
    tracks: Sequence[TraceTrack],
    spans: Iterable[Span] = (),
    *,
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write the trace to ``path`` and return the document.

    Serialization is ``sort_keys`` with a fixed separator style, so the
    bytes on disk depend only on the simulated run.  ``json.dumps`` runs
    the C encoder; ``json.dump`` to a file would run the pure-Python one.
    """
    document = build_chrome_trace(tracks, spans, metadata=metadata)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document, sort_keys=True, separators=(",", ":")))
        handle.write("\n")
    return document


__all__ = [
    "EXPORTER_REGISTRY",
    "TraceTrack",
    "build_chrome_trace",
    "export_chrome_trace",
]
