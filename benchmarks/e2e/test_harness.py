"""Tests of the end-to-end benchmark harness: ``python -m pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import re
import signal
import time
from pathlib import Path

import pytest

import compare
import run
import spans
import stats
import worker
from repro.api.spec import RunSpec

HERE = Path(__file__).resolve().parent
BENCH_PATH = HERE.parents[1] / "BENCHMARK.json"
BENCH = json.loads(BENCH_PATH.read_text())
MANIFEST = json.loads((HERE / "manifest.json").read_text())
CATALOG = run.load_catalog(BENCH, MANIFEST)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ---------------------------------------------------------------------- percentile rule
@pytest.mark.parametrize(
    "samples, expected",
    [(10000, 99.9), (9999, 99.0), (1016, 99.0), (1000, 99.0), (999, 95.0),
     (200, 95.0), (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert stats.tail_percentile(samples) == expected


# ---------------------------------------------------------------------- spans
def test_self_time_subtracts_nested_children():
    spans_ = [
        ["train", "bench", 0.0, 10.0, -1],
        ["Timeline.submit", "gpu", 1.0, 4.0, 0],
        ["estimate_event_cost", "gpu", 2.0, 3.0, 1],
        ["TGCN.forward_partition", "nn", 5.0, 9.0, 0],
        ["Tensor.backward", "tensor", 6.0, 7.0, 3],
    ]
    self_times = spans.layer_self_times(spans_)
    assert self_times == {"bench": 3.0, "gpu": 3.0, "nn": 3.0, "tensor": 1.0}
    assert sum(self_times.values()) == 10.0
    # each pause leaves the innermost open span; one outside every span is dropped
    pauses = [(2.5, 0.5), (5.5, 1.0), (9.5, 0.2), (11.0, 0.3)]
    assert spans.layer_self_times(spans_, pauses) == pytest.approx(
        {"bench": 2.8, "gpu": 2.5, "nn": 2.0, "tensor": 1.0})
    assert spans.span_seconds(spans_, "TGCN.", pauses) == {"forward_partition": 3.0}


def test_speed_probe_scales_by_mean_relative_speed():
    probe = worker.SpeedProbe(reference_s=1.0)
    probe.samples = [(0.0, 1.0), (1.0, 2.0), (2.0, 1.0), (5.0, 4.0)]
    assert probe.window(0.0, 3.0) == pytest.approx((4.0, (1 + 0.5 + 1) / 3))
    assert probe.window(3.0, 4.0) == (0.0, 1.0)  # no sample inside: the latest before
    assert probe.scaled(0.0, 10.0) == pytest.approx((10 - 8) * (1 + 0.5 + 1 + 0.25) / 4)


def test_speed_probe_samples_while_on_and_disarms():
    with worker.SpeedProbe(reference_s=1e-3) as probe:
        end = time.monotonic() + 5 * worker.PROBE_PERIOD_S
        while time.monotonic() < end:
            pass
    assert len(probe.samples) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_records_parents_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "Timeline.submit", "gpu")
    outer = tracer.wrap(lambda: (inner(), inner()), "CallbackList.on_frame", "telemetry")
    tracer.wrap(outer, "train", spans.BENCH_LAYER)()
    assert [(s[0], s[4]) for s in tracer.spans] == [
        ("train", -1), ("CallbackList.on_frame", 0),
        ("Timeline.submit", 1), ("Timeline.submit", 1),
    ]
    assert all(s[2] <= s[3] for s in tracer.spans)
    counts = spans.call_counts(tracer.spans)
    assert counts["timeline_submit"] == 2 and counts["hooks"] == 1
    self_times = spans.layer_self_times(tracer.spans)
    assert sum(self_times.values()) == pytest.approx(tracer.spans[0][3] - tracer.spans[0][2])


def test_install_method_wraps_overrides_and_properties():
    class Base:
        def step(self):
            return "base"

        @property
        def size(self):
            return 3

    class Override(Base):
        def step(self):
            return "override+" + super().step()

    class Inherit(Base):
        pass

    tracer = spans.Tracer()
    spans._install_method(tracer, Base, "step", "core")
    assert spans._selected(Base, "s*") == ["step", "size"]
    spans._install_method(tracer, Base, "size", "core")
    assert Override().step() == "override+base" and Inherit().step() == "base"
    assert Inherit().size == 3
    assert [s[0] for s in tracer.spans] == [
        "Override.step", "Base.step", "Base.step", "Base.size",
    ]
    assert "step" not in vars(Inherit)  # inherits the wrapper on Base


# ---------------------------------------------------------------------- verdicts
@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        ([1.0, 1.01, 0.99, 1.0], [1.02, 1.0, 1.01, 1.03], "lower", "unchanged"),
        ([1.0, 1.01, 0.99, 1.0], [1.2, 1.18, 1.21, 1.19], "lower", "worse"),
        ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "lower", "better"),
        ([1.0, 1.5, 0.7, 1.2], [1.1, 1.0, 1.2, 0.95], "lower", "unresolved"),
        ([0.9, 0.91, 0.9, 0.89], [0.7, 0.72, 0.71, 0.71], "higher", "worse"),
        ([0.9, 0.91, 0.9, 0.89], [0.95, 0.96, 0.94, 0.95], "higher", "better"),
    ],
)
def test_verdicts_follow_bound_and_direction(base, new, better, expected):
    assert stats.verdict(base, new, 0.1, better) == expected


def _record(workload, seed, wall, sim_ms, loss="0x1.0p-3"):
    return {"workload": workload, "seed": seed, "trace": 0, "final_loss": loss,
            "metrics": {"wall_s": wall, "sim_epoch_ms": sim_ms}}


def test_compare_rows_and_simulated_mismatch():
    end_to_end = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]
    base = [_record("w", s, 1.0 + s / 100, 5.0) for s in range(4)]
    same = [_record("w", s, 1.0 + s / 100, 5.0) for s in range(4)]
    rows, mismatches = compare.compare(base, same, end_to_end, ["sim_epoch_ms"])
    assert [row[-1] for row in rows] == ["unchanged"] and mismatches == []
    moved = [_record("w", s, 1.5, 5.0 if s else 5.5, "0x1.8p-3" if s == 3 else "0x1.0p-3")
             for s in range(4)]
    rows, mismatches = compare.compare(base, moved, end_to_end, ["sim_epoch_ms"])
    assert rows[0][-1] == "worse"
    assert mismatches == ["w seed 0: sim_epoch_ms 5.0 -> 5.5",
                          "w seed 3: final_loss 0x1.0p-3 -> 0x1.8p-3"]


# ---------------------------------------------------------------------- run.py pieces
def test_parse_importtime_buckets_by_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:      2000 |       2000 |     numpy.core",
        "import time:       300 |       2300 |   numpy",
        "import time:        50 |         50 |       repro.gpu.timeline",
        "import time:        20 |         70 |     repro.gpu",
        "import time:         5 |          5 |     repro.version",
        "import time:         7 |          7 |     repro.brandnew",
    ])
    times = run.parse_importtime(text, ["gpu"])
    assert times == pytest.approx({
        "import.other_s": 100e-6, "import.numpy_s": 2300e-6,
        "import.repro.gpu_s": 70e-6, "import.repro_s": 12e-6,
    })


def test_workload_spec_seeding():
    fleet = MANIFEST["workloads"]["serve-fleet"]
    assert run.workload_spec(fleet, 0)["seed"] == 0
    spec = run.workload_spec(fleet, 5)
    # the seed moves the graph and weights; the trace's arrivals and mix stay
    assert spec["seed"] == 5 and spec["serving"]["trace"]["seed"] == 7
    assert "seed" not in fleet["spec"]  # the manifest itself is untouched


# ---------------------------------------------------------------------- BENCHMARK.json
def test_benchmark_json_schema():
    assert BENCH_PATH.stat().st_size <= 64 * 1024
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCH["paths"] == ["benchmarks/e2e"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = []
    for entry in BENCH["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    for level, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for entry in BENCH[level]:
            assert set(entry) == keys
            assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
            names.append(entry["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    bounds = {e["name"]: e["bound"] for e in BENCH["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    setup = next(e for e in BENCH["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())


def test_catalog_is_complete_and_consistent():
    from repro.analysis import CHECK_REGISTRY

    assert len(CATALOG) == len(MANIFEST["metrics"])
    workloads = set(MANIFEST["workloads"])
    end_to_end = {n for n, m in CATALOG.items() if m["level"] == "end_to_end"}
    for name, info in CATALOG.items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(info["unit"])
        assert info["better"] in ("lower", "higher")
        assert info["clock"] in ("host", "sim", "count")
        assert info["workloads"] == "all" or set(info["workloads"]) <= workloads
        if info["level"] == "per_layer":
            assert info["moves"] in end_to_end and info["on"] in workloads
    expected = {f"host.{layer}_s" for layer in spans.LAYER_TARGETS}
    expected |= {f"host.analysis.{check}_s" for check in CHECK_REGISTRY}
    expected |= {f"calls.{counter}" for counter in spans.CALL_COUNTS}
    assert expected <= set(CATALOG)


def test_workload_specs_build_and_carry_seed0_losses():
    calls = set(worker.api_calls(None))
    assert set(MANIFEST["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    for workload in MANIFEST["workloads"].values():
        assert set(workload["setup"]) | set(workload["phases"]) <= calls
        for seed in (0, 1):
            RunSpec.from_dict(run.workload_spec(workload, seed))
        float.fromhex(workload["final_loss"]["0"])
