"""Rules are enforced when the spec is built.

Each rule — one spanning spec sections, or a bound of a runtime config that
an engine would otherwise reject only once it is built — is rejected the
same way through every door a spec comes in by (the constructor,
``from_dict``, a JSON file, ``python -m repro check``), with the same
message, and each boundary value is accepted.
"""

from __future__ import annotations

import json

import pytest

from repro.api import RunSpec
from repro.api.cli import main
from repro.serving import ServingConfig

BASE = {"dataset": "covid19_england", "model": "tgcn", "method": "pipad"}
FLEET = {"kind": "fleet", "num_shards": 2}

#: (rule, invalid sections, message, boundary sections)
RULES = [
    (
        "fixed-s-per-vs-frame",
        {"frame_size": 4, "pipad": {"fixed_s_per": 8}},
        "pipad.fixed_s_per (8) exceeds frame_size (4): a partition cannot "
        "span more snapshots than its frame holds",
        {"frame_size": 4, "pipad": {"fixed_s_per": 4}},
    ),
    (
        "serving-fixed-s-per-vs-window",
        {"serving": {"window": 4, "fixed_s_per": 8}},
        "serving.fixed_s_per (8) exceeds serving.window (4)",
        {"serving": {"window": 4, "fixed_s_per": 4}},
    ),
    (
        "window-vs-num-snapshots",
        {"num_snapshots": 8, "serving": {"window": 16}},
        "serving.window (16) exceeds num_snapshots (8): the store can never "
        "fill its window; shrink the window or extend the stream",
        {"num_snapshots": 8, "serving": {"window": 8}},
    ),
    (
        "fleet-batch-vs-admission",
        {"serving": dict(FLEET, max_batch_requests=16, admission_limit=4)},
        "serving.max_batch_requests (16) exceeds serving.admission_limit (4): "
        "a replica sheds requests before a full batch can ever form; raise "
        "the admission limit or shrink the batch",
        {"serving": dict(FLEET, max_batch_requests=4, admission_limit=4)},
    ),
    (
        "pipad-fixed-s-per-positive",
        {"pipad": {"fixed_s_per": 0}},
        "fixed_s_per must be > 0, got 0",
        {"pipad": {"fixed_s_per": 1}},
    ),
    (
        "pipad-preparing-epochs-non-negative",
        {"pipad": {"preparing_epochs": -1}},
        "preparing_epochs must be >= 0",
        {"pipad": {"preparing_epochs": 0}},
    ),
    (
        "hidden-dim-positive",
        {"hidden_dim": -3},
        "hidden_dim must be > 0, got -3",
        {"hidden_dim": 1},
    ),
    (
        "cost-scale-positive",
        {"cost_scale": -1},
        "cost_scale must be > 0, got -1",
        {"cost_scale": 1e-3},
    ),
]


def _build_direct(data, tmp_path):
    return RunSpec(**data)


def _build_from_dict(data, tmp_path):
    return RunSpec.from_dict(data)


def _build_from_file(data, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return RunSpec.load(path)


BUILDERS = [_build_direct, _build_from_dict, _build_from_file]


def _spec_data(sections):
    return {**BASE, **json.loads(json.dumps(sections))}


@pytest.mark.parametrize("build", BUILDERS, ids=lambda f: f.__name__[len("_build_"):])
@pytest.mark.parametrize(
    "invalid, message", [(r[1], r[2]) for r in RULES], ids=[r[0] for r in RULES]
)
def test_invalid_spec_cannot_be_built(build, invalid, message, tmp_path):
    with pytest.raises(ValueError) as excinfo:
        build(_spec_data(invalid), tmp_path)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("build", BUILDERS, ids=lambda f: f.__name__[len("_build_"):])
@pytest.mark.parametrize("boundary", [r[3] for r in RULES], ids=[r[0] for r in RULES])
def test_boundary_value_is_accepted(build, boundary, tmp_path):
    data = _spec_data(boundary)
    assert build(data, tmp_path) == RunSpec.from_dict(data)


@pytest.mark.parametrize(
    "invalid, message, boundary", [r[1:] for r in RULES], ids=[r[0] for r in RULES]
)
def test_check_exits_two_at_load(invalid, message, boundary, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec_data(invalid)))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    path.write_text(json.dumps(_spec_data(boundary)))
    assert main(["check", str(path)]) == 0


def test_serving_config_rejects_fixed_s_per_above_window():
    """The scheduler's own config holds the rule, for direct users too."""
    with pytest.raises(ValueError) as excinfo:
        ServingConfig(window=4, fixed_s_per=8)
    assert str(excinfo.value) == "serving.fixed_s_per (8) exceeds serving.window (4)"
    assert ServingConfig(window=4, fixed_s_per=4).fixed_s_per == 4


def test_replace_cannot_break_a_rule():
    spec = RunSpec(**_spec_data({"num_snapshots": 8, "serving": {"window": 8}}))
    with pytest.raises(ValueError, match="exceeds num_snapshots"):
        spec.replace(num_snapshots=6)
