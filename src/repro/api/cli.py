"""``python -m repro`` — the spec-driven command-line surface.

Six subcommands cover the repo's scenarios, all driven by
:class:`~repro.api.spec.RunSpec`:

- ``python -m repro list`` — every registered dataset, model, method,
  device/serving topology, experiment and built-in preset;
- ``python -m repro run SPEC`` — execute a spec (JSON file path or preset
  name) through :class:`~repro.api.engine.Engine`: training plus, when the
  spec declares one, the serving phase.  The presets are JSON files shipped
  in the package (``repro/api/presets/NAME.json``);
- ``python -m repro serve SPEC`` — the online phase only (trains the model
  the spec describes, then replays the spec's serving trace);
- ``python -m repro check SPEC`` — static spec lint from the
  :mod:`repro.analysis` catalog, no execution (exit 2 when the spec cannot
  be built, 3 on error violations);
- ``python -m repro experiment NAME`` — regenerate a paper artifact through
  the experiment harness;
- ``python -m repro claims`` — check every paper claim, print one row per
  claim and write ``BENCH_paper.json`` (exit 1 when a claim fails).

``--set key=value`` applies dotted overrides to a loaded spec
(``--set epochs=5 --set device.num_devices=4``), so one JSON file serves a
family of runs.  ``--sanitize`` on run/serve turns on the execution
sanitizer: the finished run is replayed through the happens-before,
collective and memory-watermark checkers, violations land in the trace and
report, and the command exits 3 when any are errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis import AnalysisError, run_checks
from repro.api.engine import Engine
from repro.api.registries import DEVICE_REGISTRY, SERVING_REGISTRY, trainer_registry
from repro.api.spec import RunSpec

#: built-in specs runnable by name (``python -m repro run quick``): one JSON
#: file per preset, shipped as package data
PRESET_DIR = resources.files("repro.api") / "presets"


def preset_names() -> List[str]:
    """Names of the built-in presets, sorted."""
    return sorted(
        entry.name[: -len(".json")]
        for entry in PRESET_DIR.iterdir()
        if entry.name.endswith(".json")
    )


def read_preset(name: str) -> Dict[str, Any]:
    """One preset's spec data, freshly parsed."""
    return json.loads((PRESET_DIR / f"{name}.json").read_text())


#: Python-style literals accepted next to their JSON spellings.  Without this
#: mapping ``--set serving.enable_reuse=False`` would fall through the JSON
#: parse and silently reach a bool field as the *truthy* string ``"False"``.
_PYTHON_LITERALS: Dict[str, Any] = {"True": True, "False": False, "None": None}


def _parse_value(raw: str) -> Any:
    """Interpret an override value: JSON when it parses, bare string otherwise.

    Accepts JSON literals (``4``, ``-0.5``, ``1e-3``, ``true``, ``null``,
    ``"quoted"``, ``[2, 4]``) plus the Python spellings ``True``/``False``/
    ``None``; anything unparsable stays a plain string (``nvlink``).
    """
    if raw in _PYTHON_LITERALS:
        return _PYTHON_LITERALS[raw]
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_overrides(data: Dict[str, Any], overrides: Sequence[str]) -> Dict[str, Any]:
    """Apply ``--set a.b=value`` overrides to a spec dict."""
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        keys = dotted.split(".")
        node = data
        for key in keys[:-1]:
            child = node.get(key)
            if child is None:
                child = node[key] = {}
            elif not isinstance(child, dict):
                raise ValueError(f"--set {dotted}: {key!r} is not a nested section")
            node = child
        node[keys[-1]] = _parse_value(raw)
    return data


def load_spec(source: str, overrides: Sequence[str] = ()) -> RunSpec:
    """Resolve a CLI spec argument: a JSON file path or a preset name.

    A path that cannot be read (missing, a directory, no permission) and
    names no preset is a ``ValueError``, which the CLI reports as exit 2.
    """
    if not Path(source).exists() and source in preset_names():
        data = read_preset(source)
    else:
        try:
            data = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ValueError(
                f"spec {source!r} is neither a readable JSON file nor a preset "
                f"({exc.strerror or exc}); presets: {', '.join(preset_names())}"
            ) from None
    if overrides:
        data = _apply_overrides(data, overrides)
    return RunSpec.from_dict(data)


def _summary_json(summary: Dict[str, Any]) -> str:
    """Strict-JSON dump: NaN/inf (e.g. empty-window latencies) become null."""
    cleaned = {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in summary.items()
    }
    return json.dumps(cleaned, indent=2, allow_nan=False)


# ------------------------------------------------------------------ subcommands
def _cmd_list(args: argparse.Namespace) -> int:
    from repro.analysis import CHECK_REGISTRY
    from repro.core.datapipe import STAGE_REGISTRY
    from repro.experiments import list_experiments
    from repro.graph.datasets import DATASET_ORDER
    from repro.nn import MODEL_ORDER
    from repro.telemetry.chrome_trace import EXPORTER_REGISTRY

    catalogue = {
        "datasets": list(DATASET_ORDER),
        "models": list(MODEL_ORDER),
        "methods": sorted(trainer_registry()),
        "device_kinds": {k: v.description for k, v in DEVICE_REGISTRY.items()},
        "serving_kinds": {k: v.description for k, v in SERVING_REGISTRY.items()},
        "datapipe_stages": dict(STAGE_REGISTRY),
        "experiments": list_experiments(),
        "presets": preset_names(),
        "telemetry_exporters": dict(EXPORTER_REGISTRY),
        "analysis_checks": {
            name: f"[{info.family}] {info.description}"
            for name, info in CHECK_REGISTRY.items()
        },
    }
    if args.json:
        print(json.dumps(catalogue, indent=2))
        return 0
    for section, entries in catalogue.items():
        print(f"{section}:")
        if isinstance(entries, dict):
            for name, description in entries.items():
                print(f"  {name:<10} {description}")
        else:
            print("  " + ", ".join(entries))
    return 0


def _apply_output_flags(spec: RunSpec, args: argparse.Namespace) -> RunSpec:
    """Fold ``--trace``/``--save-report`` into the spec's telemetry section.

    The flags are sugar over ``--set telemetry.trace_path=...`` — artifact
    export stays spec-driven, so programmatic :class:`Engine` users and the
    CLI produce identical files.
    """
    updates: Dict[str, Any] = {}
    if getattr(args, "trace", None):
        updates["trace_path"] = args.trace
    if getattr(args, "save_report", None):
        updates["report_path"] = args.save_report
    if not updates:
        return spec
    return spec.replace(telemetry=spec.telemetry.replace(**updates))


def _apply_sanitize_flag(spec: RunSpec, args: argparse.Namespace) -> RunSpec:
    """``--sanitize`` is sugar over ``--set analysis.enabled=True``."""
    if not getattr(args, "sanitize", False) or spec.analysis.enabled:
        return spec
    return spec.replace(analysis=spec.analysis.replace(enabled=True))


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _apply_output_flags(load_spec(args.spec, args.set or ()), args)
    spec = _apply_sanitize_flag(spec, args)
    engine = Engine.from_spec(spec)
    report = engine.run()
    if args.json:
        print(_summary_json(report.summary()))
    else:
        print(report.format())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    spec = _apply_output_flags(load_spec(args.spec, args.set or ()), args)
    spec = _apply_sanitize_flag(spec, args)
    if spec.serving is None:
        raise ValueError(
            f"spec {args.spec!r} has no serving section; add one or use "
            "'python -m repro run' for training-only specs"
        )
    engine = Engine.from_spec(spec)
    engine.serve()
    if spec.analysis.enabled:
        engine.sanitize()
    report = engine.report()
    engine.export_artifacts(report)
    engine.raise_on_violations()
    if args.json:
        print(_summary_json(report.summary()))
    else:
        print(report.format())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Static spec lint: no engine, no execution, exit 3 on errors.

    An invalid spec fails in :func:`load_spec` already (exit 2).
    """
    spec = load_spec(args.spec, args.set or ())
    report = run_checks(spec, checks=spec.analysis.checks or None)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"spec: {args.spec}")
        print(report.format())
    return 0 if report.ok else 3


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentConfig, format_experiment, run_experiment

    if args.full:
        config = ExperimentConfig.full()
    elif args.quick:
        config = ExperimentConfig.quick()
    else:
        config = ExperimentConfig()
    rows = run_experiment(args.name, config)
    print(format_experiment(args.name, rows))
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    from repro.experiments.claims import run_claims

    return run_claims()


# ------------------------------------------------------------------ entry point
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Spec-driven entry point of the PiPAD reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered names and presets")
    p_list.add_argument("--json", action="store_true", help="machine-readable output")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="execute a RunSpec (JSON path or preset)")
    p_run.add_argument("spec", help="spec JSON file path or preset name")
    p_run.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="dotted spec override, e.g. --set device.num_devices=4",
    )
    p_run.add_argument("--json", action="store_true", help="print the summary as JSON")
    p_run.add_argument(
        "--trace", metavar="PATH",
        help="write a Chrome-trace JSON of the simulated run (open in Perfetto)",
    )
    p_run.add_argument(
        "--save-report", metavar="PATH",
        help="write the full RunReport as JSON (reload with RunReport.load)",
    )
    p_run.add_argument(
        "--sanitize", action="store_true",
        help="replay the finished run through the execution sanitizer "
        "(exit 3 on violations)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_serve = sub.add_parser("serve", help="run a spec's online serving phase")
    p_serve.add_argument("spec", help="spec JSON file path or preset name")
    p_serve.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="dotted spec override, e.g. --set serving.num_shards=4",
    )
    p_serve.add_argument("--json", action="store_true", help="print the summary as JSON")
    p_serve.add_argument(
        "--trace", metavar="PATH",
        help="write a Chrome-trace JSON of the simulated run (open in Perfetto)",
    )
    p_serve.add_argument(
        "--save-report", metavar="PATH",
        help="write the full RunReport as JSON (reload with RunReport.load)",
    )
    p_serve.add_argument(
        "--sanitize", action="store_true",
        help="replay the finished run through the execution sanitizer "
        "(exit 3 on violations)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_check = sub.add_parser(
        "check", help="statically lint a RunSpec (no execution)"
    )
    p_check.add_argument("spec", help="spec JSON file path or preset name")
    p_check.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="dotted spec override, e.g. --set analysis.checks='[\"spec-dead-memory\"]'",
    )
    p_check.add_argument(
        "--json", action="store_true", help="print the analysis report as JSON"
    )
    p_check.set_defaults(func=_cmd_check)

    p_exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    p_exp.add_argument("name", help="experiment name (see 'python -m repro list')")
    scale = p_exp.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true", help="minimal smoke sweep")
    scale.add_argument("--full", action="store_true", help="the paper's full grid")
    p_exp.set_defaults(func=_cmd_experiment)

    p_claims = sub.add_parser("claims", help="check the paper's claims, write BENCH_paper.json")
    p_claims.set_defaults(func=_cmd_claims)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AnalysisError as exc:
        print(f"sanitizer: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
