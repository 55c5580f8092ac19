"""End-to-end sanitizer wiring: Engine.sanitize, RunReport extras, CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    AnalysisError,
    CHECK_REGISTRY,
    FAMILY_STATIC,
    Violation,
    register_check,
)
from repro.api import Engine, RunReport, RunSpec
from repro.api.cli import PRESET_DIR, load_spec, main, preset_names

QUICK = {
    "dataset": "covid19_england",
    "model": "tgcn",
    "method": "pipad",
    "num_snapshots": 10,
    "frame_size": 6,
    "epochs": 2,
}


def quick_spec(**overrides):
    data = dict(QUICK)
    data.update(overrides)
    return RunSpec.from_dict(data)


@pytest.fixture
def failing_check():
    """A temporary always-firing static check, removed on teardown."""
    name = "test-seeded-failure"
    register_check(
        name,
        FAMILY_STATIC,
        "seeded failure for wiring tests",
        lambda spec, artifacts: [
            Violation(check=name, message="seeded violation", time=0.5)
        ],
    )
    yield name
    CHECK_REGISTRY.pop(name)


class TestEngineSanitize:
    def test_sanitized_run_reports_clean(self):
        engine = Engine.from_spec(quick_spec(analysis={"enabled": True}))
        report = engine.run()
        analysis = report.extras["analysis"]
        assert analysis["num_errors"] == 0
        assert set(analysis["checks"]) == set(CHECK_REGISTRY)
        assert report.metrics["analysis.num_errors"] == 0.0
        assert "analysis:" in report.format()

    def test_sanitize_respects_check_selection(self):
        engine = Engine.from_spec(
            quick_spec(analysis={"enabled": True,
                                 "checks": ["memory-watermark"]})
        )
        report = engine.run()
        assert report.extras["analysis"]["checks"] == ["memory-watermark"]

    def test_extras_round_trip_and_rehydration(self):
        engine = Engine.from_spec(quick_spec(analysis={"enabled": True}))
        report = engine.run()
        restored = RunReport.from_json(report.to_json())
        assert restored.extras == report.extras
        analysis = restored.analysis
        assert analysis is not None and analysis.ok

    def test_unsanitized_run_has_no_analysis(self):
        engine = Engine.from_spec(quick_spec())
        report = engine.run()
        assert "analysis" not in report.extras
        assert report.analysis is None

    def test_violations_fail_the_run(self, failing_check):
        spec = quick_spec(
            analysis={"enabled": True, "checks": [failing_check]}
        )
        with pytest.raises(AnalysisError, match="seeded violation"):
            Engine.from_spec(spec).run()

    def test_fail_on_violation_false_keeps_the_report(self, failing_check):
        spec = quick_spec(
            analysis={
                "enabled": True,
                "checks": [failing_check],
                "fail_on_violation": False,
            }
        )
        report = Engine.from_spec(spec).run()
        assert report.extras["analysis"]["num_errors"] == 1

    def test_violations_export_as_trace_instant_events(
        self, failing_check, tmp_path
    ):
        trace_path = tmp_path / "trace.json"
        spec = quick_spec(
            analysis={
                "enabled": True,
                "checks": [failing_check],
                "fail_on_violation": False,
            },
            telemetry={"enabled": True, "trace_path": str(trace_path)},
        )
        Engine.from_spec(spec).run()
        document = json.loads(trace_path.read_text())
        instants = [
            e for e in document["traceEvents"] if e.get("cat") == "violation"
        ]
        assert len(instants) == 1
        event = instants[0]
        assert event["ph"] == "i" and event["s"] == "g"
        assert event["name"] == f"violation:{failing_check}"
        assert event["args"]["message"] == "seeded violation"
        assert "dur" not in event


class TestCLI:
    def test_check_clean_spec_exits_zero(self, capsys):
        assert main(["check", "quick"]) == 0
        out = capsys.readouterr().out
        assert "clean: no violations" in out

    def test_check_violating_spec_exits_three(self, failing_check, capsys):
        code = main([
            "check", "quick",
            "--set", f'analysis.checks=["{failing_check}"]',
        ])
        assert code == 3
        assert "seeded violation" in capsys.readouterr().out

    def test_check_warnings_alone_exit_zero(self, capsys):
        code = main(["check", "quick", "--set", "memory.gpu_budget_mb=512"])
        assert code == 0
        assert "spec-dead-memory" in capsys.readouterr().out

    def test_check_json_output(self, capsys):
        assert main(["check", "quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_errors"] == 0 and payload["violations"] == []

    def test_check_honors_analysis_checks_override(self, capsys):
        code = main([
            "check", "quick",
            "--set", 'analysis.checks=["spec-dead-memory"]',
        ])
        assert code == 0
        assert "1 check(s)" in capsys.readouterr().out

    def test_unknown_check_override_exits_two(self, capsys):
        code = main(["check", "quick", "--set", 'analysis.checks=["nope"]'])
        assert code == 2
        assert "unknown analysis check" in capsys.readouterr().err

    def test_set_coerces_analysis_enabled(self):
        spec = load_spec("quick", ["analysis.enabled=True"])
        assert spec.analysis.enabled is True
        spec = load_spec("quick", ['analysis.checks=["hb-race"]'])
        assert spec.analysis.checks == ("hb-race",)

    def test_run_sanitize_flag(self, capsys):
        assert main(["run", "quick", "--sanitize"]) == 0
        assert "analysis: " in capsys.readouterr().out

    def test_run_sanitize_failure_exits_three(self, failing_check, capsys):
        code = main([
            "run", "quick",
            "--sanitize",
            "--set", f'analysis.checks=["{failing_check}"]',
        ])
        assert code == 3
        assert "seeded violation" in capsys.readouterr().err

    def test_list_shows_analysis_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "analysis_checks:" in out
        assert "hb-race" in out and "spec-dead-memory" in out
        assert "spec-pinned-staging" not in out


class TestCleanSweep:
    """Every shipped preset passes the static lint clean, by name and by path."""

    @pytest.mark.parametrize("preset", preset_names())
    def test_presets_lint_clean(self, preset, capsys):
        assert main(["check", preset]) == 0

    def test_preset_files_lint_clean(self, capsys):
        from importlib import resources

        entries = sorted(PRESET_DIR.iterdir(), key=lambda entry: entry.name)
        assert entries, "the package should ship its presets"
        for entry in entries:
            with resources.as_file(entry) as path:
                assert main(["check", str(path)]) == 0, entry.name
