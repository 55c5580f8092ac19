"""Compare two sets of benchmark runs.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py BASE.json NEW.json [NEW2.json ...]

Each file holds the run records ``run.py --json FILE`` appended to it.  For
every workload x end-to-end metric of ``BENCHMARK.json`` one row shows each
side's median and quartiles over its untraced runs and a verdict under the
metric's bound (``stats.verdict``): ``better``, ``unchanged``, ``worse`` or
``unresolved`` when a side's spread exceeds the bound.  Simulated metrics
and ``final_loss`` are deterministic, so they must match exactly for every
(workload, seed) both sides ran.  Every NEW file is compared with BASE.
Exits 1 on any ``worse`` verdict or simulated mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from stats import quartiles, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_runs(path: Path) -> List[Dict[str, Any]]:
    """Untraced run records of one ``run.py --json`` file."""
    return [run for run in json.loads(path.read_text())["runs"] if not run["trace"]]


def compare(
    base: List[Dict[str, Any]],
    new: List[Dict[str, Any]],
    end_to_end: List[Dict[str, Any]],
    sim_metrics: List[str],
) -> Tuple[List[Tuple], List[str]]:
    """Verdict rows per workload x metric, and simulated mismatches."""
    rows = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for workload in workloads:
        for entry in end_to_end:
            name = entry["name"]
            a = [r["metrics"][name] for r in base if r["workload"] == workload]
            b = [r["metrics"][name] for r in new if r["workload"] == workload]
            rows.append((
                workload, name, entry["unit"], quartiles(a), quartiles(b),
                verdict(a, b, entry["bound"], entry["better"]),
            ))
    mismatches = []
    base_by_run = {(r["workload"], r["seed"]): r for r in base}
    for run in new:
        other = base_by_run.get((run["workload"], run["seed"]))
        if other is None:
            continue
        where = f"{run['workload']} seed {run['seed']}"
        if run["final_loss"] != other["final_loss"]:
            mismatches.append(f"{where}: final_loss {other['final_loss']} -> {run['final_loss']}")
        for name in sim_metrics:
            before, after = other["metrics"].get(name), run["metrics"].get(name)
            if before != after:
                mismatches.append(f"{where}: {name} {before!r} -> {after!r}")
    return rows, mismatches


def format_rows(rows: List[Tuple]) -> str:
    def cell(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    lines = [f"{'workload':<16} {'metric':<12} {'unit':<5} {'base median [q1, q3]':<34} "
             f"{'new median [q1, q3]':<34} {'change':>8}  verdict"]
    for workload, name, unit, a, b, outcome in rows:
        change = (b[1] - a[1]) / abs(a[1]) if a[1] else float("nan")
        lines.append(f"{workload:<16} {name:<12} {unit:<5} {cell(a):<34} {cell(b):<34} "
                     f"{change:>+8.1%}  {outcome}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare benchmark run files.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="+")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "manifest.json").read_text())
    sim_metrics = [m["name"] for m in manifest["metrics"] if m["clock"] == "sim"]
    base = load_runs(args.base)
    failed = False
    for path in args.new:
        rows, mismatches = compare(base, load_runs(path), bench["end_to_end"], sim_metrics)
        print(f"== {args.base} -> {path}")
        print(format_rows(rows))
        for line in mismatches:
            print(f"simulated mismatch: {line}")
        failed |= bool(mismatches) or any(row[-1] == "worse" for row in rows)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
