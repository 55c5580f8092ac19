"""End-to-end benchmark of the PiPAD simulator on two clocks.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
        [--seconds N] [--trace [0|1]] [--json OUT]

For each workload of ``BENCHMARK.json`` the benchmark writes the workload's
``RunSpec`` JSON (``spec.seed = S``; a serving trace keeps its own seed) and
runs it through ``repro``'s public API in fresh interpreters (``worker.py``)
with ``PYTHONPATH=src``, one BLAS thread and a fixed hash seed, one workload
at a time:

- untraced (``--trace 0``): interpreters run one after another.
  ``interpreters`` of them each set up and repeat the measured phase on
  fresh engines until their share of ``--seconds`` has passed; while time
  is left, more interpreters only set up.  Host metrics are medians:
  ``setup_s`` over all set-ups, the rest over all iterations.
- traced (``--trace 1``): one untraced and one traced interpreter split
  ``--seconds``; the traced one wraps each package's public boundary
  functions (``spans.py``) and yields per-layer host self times, call
  counts and the trace overhead.  ``python -X importtime`` gives
  per-package import times.

Host seconds are reference-host seconds: each interpreter samples the
host's speed while it runs (``worker.SpeedProbe``).

Every run checks correctness (bit-identical results across all iterations,
the committed seed-0 ``final_loss``, a clean sanitizer, every serving
request accounted for), prints every metric with its unit, and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and the metrics
``BENCHMARK.json`` lists for the mode.  It exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = ROOT / ".bench_out" / "e2e"

#: wall-clock ceiling of one workload's run, so that an invocation with one
#: workload ends within three minutes; workers are killed past it
RUN_DEADLINE_S = 170.0
#: fresh interpreters that measure per-package import times in a traced run
IMPORT_SAMPLES = 3
#: share of ``--seconds`` left to interpreters that only time their set-up:
#: set-up takes 0.45 s on training workloads and 0.9 s on serving ones, and
#: three samples of it spread by up to 11 % over five runs
SETUP_SHARE = 0.2
#: measured-phase calls reported as their own end-to-end host metrics
PHASE_METRICS = {
    "train": "train_wall_s",
    "serve": "serve_wall_s",
    "sanitize": "sanitize_s",
    "report": "report_s",
}


class BenchmarkError(RuntimeError):
    """The program under test could not be run (not a correctness failure)."""


def load_json(path: Path) -> Any:
    return json.loads(path.read_text())


def load_catalog(bench: Dict[str, Any], manifest: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every metric by name.

    ``manifest.json`` gives each metric's clock, workloads and, per layer,
    ``moves``/``on``; for the metrics ``BENCHMARK.json`` lists, that file
    gives the unit, direction and level.
    """
    catalog = {entry["name"]: dict(entry) for entry in manifest["metrics"]}
    for level in ("end_to_end", "per_layer"):
        for entry in bench[level]:
            catalog[entry["name"]].update(entry, level=level)
    return catalog


def workload_spec(workload: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """The workload's RunSpec as plain data, generated from ``seed``.

    ``seed`` drives the dataset and the model's initial weights.  A serving
    trace keeps the manifest's seed, so every seed replays the same arrival
    times and request/delta mix against its own graph.
    """
    spec = copy.deepcopy(workload["spec"])
    spec["seed"] = seed
    return spec


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # one hash seed for every interpreter: string hashing orders sets and
        # dicts, and the order moves the phase's time between interpreters
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _run(cmd: List[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{cmd[1]} exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{' '.join(cmd[:3])} ... exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return proc


def spawn_worker(
    workload: Dict[str, Any],
    spec_path: Path,
    out_path: Path,
    *,
    until: float,
    reference_s: float,
    deadline: float,
    setup_only: bool = False,
    trace_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run one fresh interpreter of the workload and return its result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--spec", str(spec_path),
        "--setup", ",".join(workload["setup"]),
        "--phases", ",".join(workload["phases"]),
        "--until", repr(until),
        "--reference-s", repr(reference_s),
        "--out", str(out_path),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    _run(cmd + ["--spawned-at", repr(time.monotonic())], deadline)
    return load_json(out_path)


def parse_importtime(text: str, packages: List[str]) -> Dict[str, float]:
    """Self seconds per top-level package from ``python -X importtime`` output.

    ``repro`` subpackages in ``packages`` get their own bucket; other repro
    modules count as ``repro``, everything but numpy and scipy as ``other``.
    """
    totals: Dict[str, float] = defaultdict(float)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, module = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # column header
        parts = module.strip().split(".")
        if parts[0] == "repro":
            key = f"repro.{parts[1]}" if len(parts) > 1 and parts[1] in packages else "repro"
        elif parts[0] in ("numpy", "scipy"):
            key = parts[0]
        else:
            key = "other"
        totals[f"import.{key}_s"] += int(self_us) / 1e6
    return dict(totals)


def import_times(catalog: Dict[str, Dict[str, Any]], deadline: float) -> Dict[str, float]:
    names = [name for name in catalog if name.startswith("import.")]
    packages = [name[len("import.repro."):-2] for name in names if name.startswith("import.repro.")]
    samples = [
        parse_importtime(
            _run([sys.executable, "-X", "importtime", "-c", "import repro.api"], deadline).stderr,
            packages,
        )
        for _ in range(IMPORT_SAMPLES)
    ]
    return {name: statistics.median(s.get(name, 0.0) for s in samples) for name in names}


# ---------------------------------------------------------------------- checks
def correctness(
    workload: Dict[str, Any], seed: int, iterations: List[Dict[str, Any]]
) -> List[Tuple[str, bool]]:
    """Named pass/fail checks over every iteration of one run."""
    first = iterations[0]
    sim = first["sim"]
    checks = [
        (
            "bit-identical across iterations",
            all(it["sim"] == sim and it["final_loss"] == first["final_loss"] for it in iterations),
        ),
        ("final_loss finite", math.isfinite(float.fromhex(first["final_loss"]))),
    ]
    expected = workload["final_loss"].get(str(seed))
    if expected is not None:
        checks.append((f"final_loss == {expected}", first["final_loss"] == expected))
    if "sim.violation_errors" in sim:
        checks.append(("sanitizer reports 0 errors", sim["sim.violation_errors"] == 0))
    if "sim.trace_requests" in sim:
        checks.append((
            "admitted + rejected == trace requests",
            sim["sim.latency_samples"] + sim["sim.rejected"] == sim["sim.trace_requests"],
        ))
    return checks


def operations(workload: Dict[str, Any], sim: Dict[str, float]) -> Tuple[int, int]:
    """(attempted, failed) operations of one measured phase.

    Serving workloads attempt their trace's requests and fail the rejected
    ones; training workloads attempt one operation per epoch.
    """
    if "sim.trace_requests" in sim:
        return int(sim["sim.trace_requests"]), int(sim["sim.rejected"])
    return int(workload["spec"]["epochs"]), 0


# ---------------------------------------------------------------------- runs
def measure(
    workload: Dict[str, Any], spec_path: Path, out: Path, seconds: float, trace: bool,
    interpreters: int, reference_s: float, deadline: float,
) -> Tuple[List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Run the workload's interpreters; returns (untraced results, traced result).

    Measuring interpreter ``k`` of ``n`` starts no new iteration after
    ``k + 1`` n-ths of all but :data:`SETUP_SHARE` of ``seconds``, so each
    measures about an equal share.  Iterations of one interpreter agree more
    closely than those of two, so spreading them over several evens out the
    difference between processes.  Then set-up-only interpreters run while
    one more, as long as the last set-up, still ends within ``seconds``.
    """
    started = time.monotonic()

    def spawn(name: str, until: float, **kwargs) -> Dict[str, Any]:
        return spawn_worker(
            workload, spec_path, out / f"{name}.json",
            until=until, reference_s=reference_s, deadline=deadline, **kwargs,
        )

    if trace:
        untraced = spawn("worker-0", started + seconds / 2)
        traced = spawn("worker-traced", started + seconds, trace_out=out / "bench-trace.json")
        return [untraced], traced
    share = seconds * (1.0 - SETUP_SHARE) / interpreters
    workers = [spawn(f"worker-{k}", started + share * (k + 1)) for k in range(interpreters)]
    while time.monotonic() + workers[-1]["raw_setup_s"] < started + seconds:
        workers.append(spawn(f"worker-setup-{len(workers)}", started, setup_only=True))
    return workers, None


def run_workload(
    workload: Dict[str, Any],
    catalog: Dict[str, Dict[str, Any]],
    seed: int,
    seconds: float,
    trace: bool,
    interpreters: int,
    reference_s: float,
) -> Dict[str, Any]:
    """Measure one workload; returns its run record.

    Host seconds come scaled to reference-host seconds from the workers;
    ``raw_*`` keep the unscaled medians.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    out = OUT_DIR / workload["name"]
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("worker-*.json"):
        stale.unlink()
    spec_path = out / f"spec-seed{seed}.json"
    spec_path.write_text(json.dumps(workload_spec(workload, seed), indent=2) + "\n")
    workers, traced = measure(
        workload, spec_path, out, seconds, trace, interpreters, reference_s, deadline,
    )

    iterations = [it for w in workers for it in w["iterations"]]
    measuring = [w for w in workers if w["iterations"]]
    checks = correctness(workload, seed, iterations + (traced["iterations"] if traced else []))
    sim = iterations[0]["sim"]
    ops_attempted, ops_failed = operations(workload, sim)
    attempted = ops_attempted + len(checks)
    failed = ops_failed + sum(not ok for _, ok in checks)

    def median_over(its: List[Dict[str, Any]], field: str, calls: List[str]) -> float:
        return statistics.median(sum(it[field][name] for name in calls) for it in its)

    metrics: Dict[str, float] = dict(sim)
    metrics["wall_s"] = median_over(iterations, "host", workload["phases"])
    metrics["raw_wall_s"] = median_over(iterations, "calls", workload["phases"])
    metrics["ops_per_s"] = sim["sim.ops"] / metrics["wall_s"]
    metrics["host_speed"] = statistics.median(it["speed"] for it in iterations)
    metrics["peak_rss_mb"] = statistics.median(w["peak_rss_mb"] for w in measuring)
    metrics["fail_frac"] = failed / attempted
    for call, name in PHASE_METRICS.items():
        if call in workload["phases"]:
            metrics[name] = median_over(iterations, "host", [call])
    if traced is None:
        metrics["setup_s"] = statistics.median(w["setup_s"] for w in workers)
        metrics["raw_setup_s"] = statistics.median(w["raw_setup_s"] for w in workers)
    else:
        metrics.update(layer_metrics(traced["iterations"], catalog))
        metrics["host.traced_wall_s"] = median_over(
            traced["iterations"], "host", workload["phases"])
        metrics["host.trace_overhead_s"] = metrics["host.traced_wall_s"] - metrics["wall_s"]
        metrics.update(import_times(catalog, deadline))
    unknown = sorted(set(metrics) - set(catalog))
    if unknown:
        raise BenchmarkError(f"metrics missing from manifest.json: {unknown}")
    return {
        "workload": workload["name"],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "interpreters": len(workers) + (traced is not None),
        "iterations": len(iterations),
        "correct": all(ok for _, ok in checks),
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "final_loss": iterations[0]["final_loss"],
        "calls": {
            name: statistics.median(it["calls"][name] for it in iterations)
            for name in workload["setup"] + workload["phases"]
        },
        "metrics": metrics,
    }


def layer_metrics(iterations: List[Dict[str, Any]], catalog: Dict[str, Any]) -> Dict[str, float]:
    """Medians over traced iterations of per-layer self times and call counts."""
    from spans import BENCH_LAYER, LAYER_TARGETS

    def seconds(get) -> float:
        return statistics.median(get(it["trace"]) for it in iterations)

    out = {
        f"host.{layer}_s": seconds(lambda t, layer=layer: t["layers"].get(layer, 0.0))
        for layer in LAYER_TARGETS
    }
    out["host.unattributed_s"] = seconds(lambda t: t["layers"].get(BENCH_LAYER, 0.0))
    for name in catalog:
        if name.startswith("host.analysis."):
            check = name[len("host.analysis."):-2]
            out[name] = seconds(lambda t, check=check: t["checks"].get(check, 0.0))
    for counter in iterations[0]["trace"]["counts"]:
        out[f"calls.{counter}"] = statistics.median(it["trace"]["counts"][counter] for it in iterations)
    return out


# ---------------------------------------------------------------------- output
def print_record(record: Dict[str, Any], catalog: Dict[str, Dict[str, Any]]) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(
        f"== {record['workload']}  seed={record['seed']}  {mode}  "
        f"{record['interpreters']} interpreters, {record['iterations']} measured iterations"
    )
    calls = "  ".join(f"{name}={wall:.4f}" for name, wall in record["calls"].items())
    print(f"  API call medians (unscaled s): {calls}")
    for level in ("end_to_end", "per_layer"):
        print(f"  {level.replace('_', '-')}:")
        for name, value in sorted(record["metrics"].items()):
            info = catalog[name]
            if info["level"] == level:
                print(f"    {name:<34} {value:>16.6g} {info['unit']:<9} [{info['clock']}]")
    for name, ok in record["checks"]:
        print(f"  check: {'ok  ' if ok else 'FAIL'} {name}")


def append_json(path: Path, records: List[Dict[str, Any]]) -> None:
    """Add this invocation's run records to ``path`` (created if missing)."""
    doc = load_json(path) if path.exists() else {"runs": []}
    doc["runs"].extend(records)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def result_line(records: List[Dict[str, Any]], bench: Dict[str, Any]) -> Dict[str, Any]:
    """The summary line: ``BENCHMARK.json``'s metrics for the mode."""
    prefix = len(records) > 1
    metrics = {}
    for record in records:
        level = "per_layer" if record["trace"] else "end_to_end"
        for entry in bench[level]:
            key = f"{record['workload']}/{entry['name']}" if prefix else entry["name"]
            metrics[key] = {"value": record["metrics"][entry["name"]], "unit": entry["unit"]}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def parse_args(argv: Optional[List[str]], bench: Dict[str, Any]):
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="Two-clock end-to-end benchmark.")
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced run: per-layer host metrics instead of end-to-end")
    parser.add_argument("--json", type=Path, help="append the run records to this file")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    manifest = load_json(HERE / "manifest.json")
    bench = load_json(ROOT / "BENCHMARK.json")
    args = parse_args(argv, bench)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    catalog = load_catalog(bench, manifest)
    records = []
    try:
        for name in args.workload:
            record = run_workload(
                dict(manifest["workloads"][name], name=name),
                catalog, args.seed, args.seconds, bool(args.trace),
                manifest["interpreters"], manifest["probe_reference_s"],
            )
            print_record(record, catalog)
            records.append(record)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        append_json(args.json, records)
    summary = result_line(records, bench)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
