"""The ``python -m repro`` CLI surface: list/run/serve/experiment."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.cli import (
    PRESET_DIR,
    _apply_overrides,
    _parse_value,
    load_spec,
    main,
    preset_names,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestList:
    def test_list_prints_catalogue(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for section in ("datasets:", "models:", "methods:", "device_kinds:",
                        "serving_kinds:", "datapipe_stages:",
                        "experiments:", "presets:",
                        "telemetry_callbacks:", "telemetry_exporters:"):
            assert section in out
        assert "pipad" in out
        assert "covid19_england" in out

    def test_list_json_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        catalogue = json.loads(capsys.readouterr().out)
        assert "sharded" in catalogue["serving_kinds"]
        assert "quick" in catalogue["presets"]
        assert "table1" in catalogue["experiments"]
        assert "logging" in catalogue["telemetry_callbacks"]
        assert "chrome-trace" in catalogue["telemetry_exporters"]
        # The one stage chain, in execution order.
        assert list(catalogue["datapipe_stages"]) == ["slice", "gather", "pin", "h2d"]


class TestSpecLoading:
    def test_presets_all_validate(self):
        assert len(preset_names()) == 8
        for name in preset_names():
            spec = load_spec(name)
            assert spec.dataset  # parsed and validated

    def test_preset_files_ship_in_the_package(self):
        names = sorted(
            entry.name for entry in PRESET_DIR.iterdir() if entry.name.endswith(".json")
        )
        assert names == [f"{name}.json" for name in preset_names()]
        assert "quick.json" in names
        # Root specs/ keeps only its README, which points at the package copies.
        assert sorted(p.name for p in (REPO_ROOT / "specs").iterdir()) == ["README.md"]

    def test_load_spec_from_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"dataset": "hepth", "method": "pygt"}))
        spec = load_spec(str(path))
        assert (spec.dataset, spec.method) == ("hepth", "pygt")

    def test_unknown_source_names_presets(self):
        with pytest.raises(ValueError, match="neither a readable JSON file nor a preset"):
            load_spec("no-such-spec")

    def test_directory_as_spec_path_exits_2(self, tmp_path, capsys):
        """An unreadable path is an error line, not an IsADirectoryError
        traceback."""
        assert main(["check", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "neither a readable JSON file nor a preset" in captured.err
        assert captured.out == ""

    def test_set_overrides_nested_keys(self):
        spec = load_spec(
            "distributed-4gpu",
            ["device.num_devices=8", "epochs=5", "device.interconnect=pcie"],
        )
        assert spec.device.num_devices == 8
        assert spec.device.interconnect == "pcie"
        assert spec.epochs == 5

    def test_apply_overrides_rejects_bad_syntax(self):
        with pytest.raises(ValueError, match="key=value"):
            _apply_overrides({}, ["epochs"])

    def test_shipped_preset_files_load_by_path(self):
        from importlib import resources

        for name in preset_names():
            with resources.as_file(PRESET_DIR / f"{name}.json") as path:
                assert load_spec(str(path)) == load_spec(name)

    def test_pipeline_preset_resolves_pipeline_topology(self):
        spec = load_spec("pipeline-4gpu")
        assert spec.device.kind == "pipeline"
        assert spec.device.num_devices == 4
        assert spec.pipad.fixed_s_per == 2
        assert spec.data.pipeline == "staged"
        assert spec.data.prefetch_depth == 2


class TestSetCoercion:
    """``--set`` value parsing: JSON plus Python literal spellings."""

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("4", 4),
            ("-3", -3),
            ("-0.5", -0.5),
            ("1e-3", 1e-3),
            ("true", True),
            ("false", False),
            ("True", True),
            ("False", False),
            ("null", None),
            ("None", None),
            ('"42"', "42"),
            ('"true"', "true"),
            ("nvlink", "nvlink"),
            ("[2, 4]", [2, 4]),
        ],
    )
    def test_parse_value(self, raw, expected):
        value = _parse_value(raw)
        assert value == expected
        assert type(value) is type(expected)

    def test_negative_number_reaches_spec_field(self):
        spec = load_spec("quick", ["seed=-5", "lr=1e-4"])
        assert spec.seed == -5
        assert spec.lr == 1e-4

    def test_python_bool_reaches_nested_bool_field(self):
        """Regression: ``False`` used to fall through the JSON parse and land
        in the bool field as the truthy string ``"False"``."""
        spec = load_spec(
            "sharded-serving",
            ["serving.enable_reuse=False", "serving.enable_pipeline=true"],
        )
        assert spec.serving.enable_reuse is False
        assert spec.serving.enable_pipeline is True

    @pytest.mark.parametrize(
        "override, field",
        [
            ("data.pin_memory=yes", "DataSpec.pin_memory"),
            ("memory.feature_cache=yes", "MemoryConfig.feature_cache"),
            ("serving.enable_reuse=nope", "ServingSpec.enable_reuse"),
            ("pipad.use_sliced_csr=nope", "PiPADConfig.use_sliced_csr"),
            ('telemetry.enabled="false"', "TelemetrySpec.enabled"),
            ("analysis.fail_on_violation=0", "AnalysisSpec.fail_on_violation"),
        ],
    )
    def test_bool_field_rejects_non_bool(self, override, field, capsys):
        """A string such as ``"yes"`` would otherwise run as true."""
        with pytest.raises(ValueError, match=f"^{field} must be true or false, got "):
            load_spec("fleet-serving", [override])
        assert main(["check", "fleet-serving", "--set", override]) == 2
        assert f"{field} must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ("epochs=2.5", "RunSpec.epochs must be an integer"),
            ("num_snapshots=7.5", "RunSpec.num_snapshots must be an integer"),
            ("device=null", "RunSpec.device must be a mapping, got null"),
            ("telemetry=null", "RunSpec.telemetry must be a mapping, got null"),
        ],
    )
    def test_bad_field_type_exits_2(self, override, message, capsys):
        assert main(["check", "quick", "--set", override]) == 2
        assert main(["run", "quick", "--set", override]) == 2
        assert message in capsys.readouterr().err

    def test_quoted_value_stays_a_string(self):
        spec = load_spec("quick", ['dataset="hepth"'])
        assert spec.dataset == "hepth"

    def test_dotted_keys_create_device_section(self):
        """The quick preset has no device section; dotted overrides must
        create it and coerce into a DeviceSpec."""
        spec = load_spec(
            "quick",
            [
                "device.kind=pipeline",
                "device.num_devices=4",
                "device.schedule=blocked",
            ],
        )
        assert spec.device.kind == "pipeline"
        assert spec.device.num_devices == 4
        assert spec.device.schedule == "blocked"

    def test_dotted_keys_reach_doubly_nested_sections(self):
        spec = load_spec("sharded-serving", ["serving.trace.seed=99"])
        assert spec.serving.trace.seed == 99

    def test_value_with_equals_sign_splits_once(self):
        data = _apply_overrides({}, ["note=a=b"])
        assert data["note"] == "a=b"

    def test_scalar_key_cannot_be_used_as_section(self):
        with pytest.raises(ValueError, match="not a nested section"):
            _apply_overrides({"epochs": 3}, ["epochs.inner=1"])

    def test_telemetry_section_coerces_from_dotted_keys(self):
        spec = load_spec(
            "quick",
            [
                "telemetry.enabled=False",
                "telemetry.trace_path=out.json",
                'telemetry.callbacks=["logging"]',
            ],
        )
        assert spec.telemetry.enabled is False
        assert spec.telemetry.trace_path == "out.json"
        assert spec.telemetry.callbacks == ("logging",)

    def test_unknown_telemetry_callback_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry callback"):
            load_spec("quick", ['telemetry.callbacks=["prometheus"]'])

    def test_data_section_coerces_from_dotted_keys(self):
        """The quick preset has no data section; dotted overrides must
        create it and coerce into a DataSpec with native types."""
        spec = load_spec(
            "quick",
            [
                "data.prefetch_depth=4",
                "data.pin_memory=False",
                "data.pipeline=staged",
            ],
        )
        assert spec.data.prefetch_depth == 4
        assert spec.data.pin_memory is False
        assert spec.data.pipeline == "staged"

    def test_unknown_datapipe_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown datapipe pipeline"):
            load_spec("quick", ["data.pipeline=turbo"])

    def test_bool_prefetch_depth_rejected(self):
        """``true`` parses to a bool, which must not sneak into the int
        depth field as 1."""
        with pytest.raises(ValueError, match="prefetch_depth must be an int"):
            load_spec("quick", ["data.prefetch_depth=true"])


class TestRun:
    def test_run_quick_preset(self, capsys):
        assert main(["run", "quick"]) == 0
        out = capsys.readouterr().out
        assert "training [PiPAD]" in out
        assert "final loss" in out

    def test_run_json_summary(self, capsys):
        assert main(["run", "quick", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "final_loss" in summary
        assert "train_simulated_seconds" in summary

    def test_run_invalid_spec_exits_2(self, capsys):
        assert main(["run", "quick", "--set", "dataset=imagenet"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_run_trace_and_save_report_write_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        report = tmp_path / "report.json"
        assert main([
            "run", "quick",
            "--trace", str(trace),
            "--save-report", str(report),
        ]) == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"] and doc["displayTimeUnit"] == "ms"
        payload = json.loads(report.read_text())
        assert set(payload) == {"spec", "training", "serving", "metrics", "extras"}
        assert payload["metrics"]  # telemetry snapshot is populated

    def test_disabled_telemetry_still_writes_trace_and_report(
        self, tmp_path, capsys
    ):
        """Telemetry off drops only the op spans: the trace still carries
        the timeline tracks and the report is a full ``RunReport``."""
        from repro.api import RunReport

        trace = tmp_path / "trace.json"
        report = tmp_path / "report.json"
        assert main([
            "run", "quick",
            "--set", "telemetry.enabled=False",
            "--trace", str(trace),
            "--save-report", str(report),
        ]) == 0
        assert json.loads(trace.read_text())["traceEvents"]
        loaded = RunReport.load(report)
        assert loaded.spec.telemetry.enabled is False
        assert loaded.training is not None


class TestServe:
    def test_serve_requires_serving_section(self, capsys):
        assert main(["serve", "quick"]) == 2
        assert "no serving section" in capsys.readouterr().err

    def test_serve_runs_spec_with_serving(self, capsys):
        assert main([
            "serve", "sharded-serving",
            "--set", "num_snapshots=8",
            "--set", "serving.trace.num_events=40",
        ]) == 0
        out = capsys.readouterr().out
        assert "engine=PiPAD-Serve-x2" in out
        assert "latency p50=" in out
        assert "delta ingestion:" in out

    def test_serve_save_report_round_trips(self, tmp_path, capsys):
        from repro.api import RunReport

        report = tmp_path / "report.json"
        assert main([
            "serve", "sharded-serving",
            "--set", "num_snapshots=8",
            "--set", "serving.trace.num_events=40",
            "--save-report", str(report),
        ]) == 0
        restored = RunReport.load(report)
        assert restored.serving is not None
        assert restored.serving.metrics.num_requests > 0


class TestExperiment:
    def test_experiment_quick(self, capsys):
        assert main(["experiment", "table1", "--quick"]) == 0
        assert "covid19_england" in capsys.readouterr().out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


def test_module_entry_point_runs():
    """``python -m repro`` is wired to the CLI (subprocess smoke)."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "list", "--json"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert "presets" in json.loads(result.stdout)
