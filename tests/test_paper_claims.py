"""The paper-claims table and its committed ``BENCH_paper.json``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.cli import main
from repro.experiments import ExperimentConfig, claims
from repro.experiments.claims import _OPS, BENCH_FILE, CLAIMS, Claim

COMMITTED = Path(__file__).resolve().parents[1] / BENCH_FILE


def test_claim_ids_are_unique_and_every_claim_cites_the_paper():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))
    for claim in CLAIMS:
        assert claim.figure.strip() and claim.paper.strip(), claim.id
        assert claim.experiment in claims._RUNNERS, claim.id


def test_committed_file_lists_every_claim_and_all_hold():
    doc = json.loads(COMMITTED.read_text())
    assert [record["id"] for record in doc["claims"]] == [claim.id for claim in CLAIMS]
    for record in doc["claims"]:
        assert record["verdict"] == "holds", record["id"]
        assert float.fromhex(record["margin"]) >= 0.0, record["id"]
        for check in record["checks"]:
            value, bound = float.fromhex(check["value"]), float.fromhex(check["bound"])
            assert check["holds"] and _OPS[check["op"]](value, bound), (record["id"], check)


def test_cli_exits_1_and_records_the_failing_claim(monkeypatch, tmp_path, capsys):
    config = ExperimentConfig.quick()
    calls = []
    monkeypatch.setitem(
        claims._RUNNERS, "stub", lambda cfg: calls.append(cfg) or {"x": 2.0}
    )
    table = [
        Claim("passes", "Fig. A", "x above 1", "stub", config,
              lambda rows: [("x", rows["x"], ">", 1.0)]),
        Claim("fails", "Fig. B", "x above 3", "stub", config,
              lambda rows: [("x", rows["x"], ">=", 1.0), ("x", rows["x"], ">", 3.0)]),
    ]
    monkeypatch.setattr(claims, "CLAIMS", table)
    monkeypatch.chdir(tmp_path)

    assert main(["claims"]) == 1
    assert calls == [config]  # one run serves both claims
    assert "fails: x: 2 > 3 does not hold" in capsys.readouterr().out
    doc = json.loads((tmp_path / BENCH_FILE).read_text())
    passes, fails = doc["claims"]
    assert passes["verdict"] == "holds" and passes["margin"] == (1.0).hex()
    assert fails["verdict"] == "fails" and fails["margin"] == (-1.0).hex()
    assert [check["holds"] for check in fails["checks"]] == [True, False]
    assert fails["checks"][1]["bound"] == (3.0).hex()


@pytest.mark.parametrize(
    "value, op, bound, margin",
    [(2.0, ">", 1.0, 1.0), (0.5, "<", 1.0, 0.5), (1.0, "==", 1.0, 0.0), (3.0, "==", 1.0, -2.0)],
)
def test_margin_is_the_signed_distance_to_the_bound(value, op, bound, margin):
    assert claims._distance(value, op, bound) == margin
