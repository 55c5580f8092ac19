"""One fresh interpreter of the end-to-end benchmark (started by ``run.py``).

Builds the workload through ``repro``'s public API, times every call, and,
unless ``--setup-only``, repeats the measured phase, each time on a fresh
:class:`~repro.api.Engine`; after the first iteration it starts another
only while that would end nearer to ``--until`` than stopping.
Host seconds are scaled to reference-host seconds by :class:`SpeedProbe`.
Writes one JSON document to ``--out``:

- ``setup_s`` and ``raw_setup_s``: interpreter start (the parent's spawn
  time) to the end of the first set-up, scaled and unscaled;
- ``iterations``: per iteration, the unscaled (``calls``) and scaled
  (``host``) seconds of every call, the host's mean relative speed during
  the measured phase, the simulated metrics, the final loss as
  ``float.hex`` and, with ``--trace-out``, per-layer host self times and
  call counts;
- ``peak_rss_mb``: the process's peak resident set.

With ``--trace-out`` the boundary wrappers of ``spans.py`` are installed in
this process before the first engine is built, and the spans of the first
iteration are written to that path.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import spans

#: seconds between two speed samples, and the length of the sampled loop
#: (about 0.18 ms on a quiet host, so the probe takes about 3.7 % of the
#: time); short, dense samples follow the host's bursts more closely than
#: long, sparse ones
PROBE_PERIOD_S = 0.005
PROBE_LOOPS = 2000


def api_calls(engine_cls) -> Dict[str, Callable[[Any, Dict[str, Any]], Any]]:
    """The timed API calls, by the names the manifest's set-up and phases use."""
    return {
        "from_spec": lambda engine, spec: engine_cls.from_spec(spec),
        "graph": lambda engine, spec: engine.graph,
        "trainer": lambda engine, spec: engine.trainer,
        "serving_engine": lambda engine, spec: engine.serving_engine,
        "train": lambda engine, spec: engine.train(),
        "serve": lambda engine, spec: engine.serve(),
        "sanitize": lambda engine, spec: engine.sanitize(),
        "report": lambda engine, spec: engine.report(),
    }


def reference_loop(n: int) -> int:
    """A fixed pure-Python loop whose wall time tracks the host's speed."""
    total, table = 0, {}
    for i in range(n):
        table[i & 255] = total
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples the host's speed while the worker runs.

    On a shared machine the CPU speed swings by up to 2x, in bursts shorter
    than one measured phase, so a reference loop run before and after a
    phase misses most of them.  While the probe is on, an interval timer
    interrupts the program every :data:`PROBE_PERIOD_S` and times
    :func:`reference_loop`.  A wall interval then scales to reference-host
    seconds: its length minus the probe's own time in it, times the mean
    speed of its samples relative to ``reference_s``, the loop's time on the
    reference host.  A change to ``repro`` cannot move the loop, so the
    scaling cannot hide a regression.
    """

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        #: (monotonic start, wall seconds) of every sample, in time order
        self.samples: List[Tuple[float, float]] = []

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_signal) -> None:
        start = time.monotonic()
        reference_loop(PROBE_LOOPS)
        self.samples.append((start, time.monotonic() - start))

    def window(self, start: float, end: float) -> Tuple[float, float]:
        """``(probe seconds, mean relative speed)`` of ``[start, end)``.

        An interval shorter than the period may hold no sample; it takes
        the speed of the latest sample before it.
        """
        inside = [seconds for at, seconds in self.samples if start <= at < end]
        speed_of = inside or [seconds for at, seconds in self.samples if at < end][-1:]
        return sum(inside), statistics.fmean(self.reference_s / s for s in speed_of)

    def scaled(self, start: float, end: float) -> float:
        """Reference-host seconds of the wall interval ``[start, end)``."""
        probe_s, speed = self.window(start, end)
        return (end - start - probe_s) * speed


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="RunSpec JSON file")
    parser.add_argument("--setup", required=True, help="comma-separated set-up calls")
    parser.add_argument("--phases", required=True, help="comma-separated measured calls")
    parser.add_argument("--until", type=float, required=True,
                        help="time.monotonic() near which the last iteration should end")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after timing the first set-up")
    parser.add_argument("--reference-s", type=float, required=True,
                        help="the probe loop's wall seconds on the reference host")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--trace-out", help="trace the run and write spans here")
    return parser.parse_args(argv)


def run_calls(calls, names, engine, spec, tracer, stamps, outputs):
    """Run API calls in order, recording each one's (start, end); returns the engine."""
    for name in names:
        call = calls[name]
        if tracer is not None:
            call = tracer.wrap(call, name, spans.BENCH_LAYER)
        start = time.monotonic()
        out = call(engine, spec)
        stamps[name] = (start, time.monotonic())
        outputs[name] = out
        if name == "from_spec":
            engine = out
    return engine


def simulated_metrics(engine, spec: Dict[str, Any], outputs: Dict[str, Any]) -> Dict[str, float]:
    """Deterministic simulated-clock metrics of one finished iteration."""
    from repro.analysis import collect_artifacts
    from stats import tail_percentile

    report = outputs["report"]
    training, serving = report.training, report.serving
    metrics, extras = report.metrics, training.extras
    epochs = training.epochs
    # sim.ops counts the measured phase's work only: on serving workloads the
    # offline training belongs to set-up, so only the serving timelines count
    if serving is None:
        artifacts = collect_artifacts(trainer=engine.trainer)
    else:
        artifacts = collect_artifacts(serving_engine=engine.serving_engine)
    sim: Dict[str, float] = {
        "sim_epoch_ms": training.steady_epoch_seconds * 1e3,
        "sim.ops": sum(len(timeline.ops) for _, _, timeline in artifacts.timelines),
        "sim.gpu_util": training.gpu_utilization,
        "sim.sm_util": training.sm_utilization,
        "sim.kernel_launches": training.kernel_launches,
        "sim.peak_mem_mb": training.peak_memory_bytes / 2**20,
        "sim.mean_s_per": extras.get("mean_s_per", 0.0),
    }
    for kind in ("kernel", "h2d", "d2h", "cpu"):
        sim[f"sim.{kind}_ms"] = training.breakdown.get(kind, 0.0) / epochs * 1e3
    for category in ("aggregation", "update", "rnn", "elementwise"):
        seconds = training.category_seconds.get(category, 0.0)
        sim[f"sim.cat.{category}_ms"] = seconds / epochs * 1e3
    for stage in ("slice", "gather", "pin", "h2d"):
        sim[f"sim.prefetch.{stage}_ms"] = metrics.get(f"prefetch.{stage}.seconds", 0.0) * 1e3
    lookups = extras.get("gpu_hits", 0.0) + extras.get("cpu_hits", 0.0)
    total = lookups + extras.get("misses", 0.0)
    sim["sim.reuse_hit_rate"] = lookups / total if total else 0.0
    for name, key in (
        ("all_reduce", "collective.all_reduce.seconds"),
        ("peer_transfer", "collective.peer_transfer.seconds"),
        ("bubble", "pipeline.bubble_seconds"),
    ):
        if key in metrics:
            sim[f"sim.{name}_ms"] = metrics[key] / epochs * 1e3
    if "feature_cache_hit_rate" in extras:
        sim.update({
            "sim.cache.hit_rate": extras["feature_cache_hit_rate"],
            "sim.cache.gpu_hits": extras["feature_cache_gpu_hits"],
            "sim.cache.pinned_hits": extras["feature_cache_pinned_hits"],
            "sim.cache.spill_hits": extras["feature_cache_spill_hits"],
            "sim.cache.misses": extras["feature_cache_misses"],
            "sim.cache.miss_mb": extras["feature_cache_miss_bytes"] / 2**20,
            "sim.cache.evictions": extras["feature_cache_evictions"],
            "sim.cache.writeback_mb": extras["feature_cache_writeback_bytes"] / 2**20,
            "sim.cache.peak_pinned_mb": extras["feature_cache_peak_pinned_bytes"] / 2**20,
        })
    if serving is not None:
        latencies = serving.metrics.latencies()
        admitted = len(latencies)
        rejected = int(serving.extras.get("rejected_requests", 0))
        slo_s = spec["serving"]["slo_p99_ms"] * 1e-3
        tail = tail_percentile(admitted)
        summary = serving.metrics.summary()
        sim.update({
            "sim_p50_ms": serving.metrics.latency_percentile(50.0) * 1e3,
            "sim_tail_ms": serving.metrics.latency_percentile(tail) * 1e3,
            "slo_attain": float((latencies <= slo_s).sum()) / (admitted + rejected),
            "sim.tail_pct": tail,
            "sim.latency_samples": admitted,
            "sim.rejected": rejected,
            "sim.trace_requests": sum(
                1 for event in engine.default_trace() if event.kind == "request"
            ),
            "sim.batches": summary["batches"],
            "sim.mean_batch_size": summary["mean_batch_size"],
            "sim.serve_hit_rate": summary["cache_hit_rate"],
            "sim.rows_per_delta": summary["rows_per_delta"],
            "sim.serve_kernel_ms": serving.breakdown.get("kernel", 0.0) * 1e3,
            "sim.serve_h2d_ms": serving.breakdown.get("h2d", 0.0) * 1e3,
            "sim.halo_gather_ms": serving.extras.get("halo_gather_seconds", 0.0) * 1e3,
            "sim.scale_ups": serving.extras.get("scale_up_events", 0.0),
        })
    analysis = report.extras.get("analysis")
    if analysis is not None:
        sim["sim.violations"] = analysis["num_violations"]
        sim["sim.violation_errors"] = analysis["num_errors"]
    return {k: float(v) for k, v in sim.items() if not math.isnan(v)}


def trace_metrics(tracer: spans.Tracer, probe: SpeedProbe, start: float, end: float) -> Dict[str, Any]:
    """Per-layer host numbers of the iteration ``[start, end)`` whose spans
    ``tracer`` holds: the probe's samples are taken out of the span times,
    which are then scaled by the iteration's mean relative speed."""
    pauses = [(at, seconds) for at, seconds in probe.samples if start <= at < end]
    speed = probe.window(start, end)[1]
    layers = spans.layer_self_times(tracer.spans, pauses)
    checks = spans.span_seconds(tracer.spans, "check:", pauses)
    return {
        "layers": {layer: seconds * speed for layer, seconds in layers.items()},
        "checks": {check: seconds * speed for check, seconds in checks.items()},
        "counts": spans.call_counts(tracer.spans),
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    tracer = spans.Tracer() if args.trace_out else None
    with SpeedProbe(args.reference_s) as probe:
        result = measure(args, probe, tracer)
    Path(args.out).write_text(json.dumps(result))
    return 0


def measure(args: argparse.Namespace, probe: SpeedProbe, tracer) -> Dict[str, Any]:
    """Set up, then repeat the measured phase; returns the ``--out`` document."""
    from repro.api import Engine

    calls = api_calls(Engine)
    spec = json.loads(Path(args.spec).read_text())
    setup, phases = args.setup.split(","), args.phases.split(",")
    if tracer is not None:
        spans.install(tracer)
    result: Dict[str, Any] = {"iterations": []}
    iterations = result["iterations"]
    # an iteration starts when, as long as the latest one, it would end
    # nearer to --until than stopping now: runs end on time on average
    last_s = 0.0
    while not iterations or time.monotonic() + last_s / 2 < args.until:
        started = time.monotonic()
        if tracer is not None:
            tracer.clear()
        stamps: Dict[str, Tuple[float, float]] = {}
        outputs: Dict[str, Any] = {}
        engine = run_calls(calls, setup, None, spec, tracer, stamps, outputs)
        if "setup_s" not in result:
            setup_end = stamps[setup[-1]][1]
            result["setup_s"] = probe.scaled(args.spawned_at, setup_end)
            result["raw_setup_s"] = setup_end - args.spawned_at
            if args.setup_only:
                break
        engine = run_calls(calls, phases, engine, spec, tracer, stamps, outputs)
        record: Dict[str, Any] = {
            "calls": {name: end - start for name, (start, end) in stamps.items()},
            "host": {name: probe.scaled(start, end) for name, (start, end) in stamps.items()},
            "speed": probe.window(stamps[phases[0]][0], stamps[phases[-1]][1])[1],
        }
        if tracer is not None:
            record["trace"] = trace_metrics(
                tracer, probe, stamps[setup[0]][0], stamps[phases[-1]][1])
            if not iterations:
                Path(args.trace_out).write_text(json.dumps({
                    "fields": ["name", "layer", "start", "end", "parent"],
                    "spans": tracer.spans,
                }))
        record["sim"] = simulated_metrics(engine, spec, outputs)
        record["final_loss"] = outputs["report"].training.final_loss.hex()
        iterations.append(record)
        del engine, outputs
        gc.collect()
        last_s = time.monotonic() - started
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


if __name__ == "__main__":
    raise SystemExit(main())
