"""Tests for the experiment harness, its breakdown helpers and package surface."""

from __future__ import annotations

import pytest

import repro
from repro.baselines import PyGTTrainer, TrainerConfig
from repro.experiments import (
    ExperimentConfig,
    format_experiment,
    format_table,
    list_experiments,
    run_experiment,
)
from repro.experiments.fig10_overall_speedup import speedups
from repro.experiments.fig11_parallel_gnn import dimension_sensitivity, thread_utilization
from repro.experiments.fig3_breakdown import latency_fractions

QUICK = ExperimentConfig.quick()


class TestPackageSurface:
    def test_version_and_lazy_exports(self):
        assert repro.__version__
        assert repro.CSRMatrix is not None
        assert repro.PiPADTrainer is not None
        assert "load_dataset" in dir(repro)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.not_a_symbol


class TestProfilingHelpers:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.graph import load_dataset

        graph = load_dataset("covid19_england", num_snapshots=8)
        return PyGTTrainer(graph, TrainerConfig(model="tgcn", frame_size=4, epochs=1)).train()

    def test_latency_breakdown_sums_to_one(self, result):
        breakdown = latency_fractions(result)
        total = (
            breakdown["transfer_fraction"]
            + breakdown["compute_fraction"]
            + breakdown["cpu_fraction"]
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestExperimentHarness:
    def test_registry_covers_all_paper_artifacts(self):
        names = set(list_experiments())
        assert {"table1", "table2", "fig3", "fig4", "fig5", "fig9", "fig10", "fig11", "fig12"} <= names

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_format_table_alignment(self):
        text = format_table(["a", "b"], [["x", 1.0], ["yy", 2.5]])
        assert "a" in text and "2.500" in text

    def test_table1_rows(self):
        rows = run_experiment("table1", QUICK)
        assert len(rows) == 7
        assert rows["flickr"]["feature_dim"] == 2
        assert "paper_nodes" in rows["flickr"]
        assert format_experiment("table1", rows)

    def test_fig5_monotone_transactions(self):
        rows = run_experiment("fig5", QUICK)
        dims = sorted(rows)
        transactions = [rows[d]["transactions_per_nnz"] for d in dims]
        assert transactions == sorted(transactions)
        # Requests stay flat until the 128-byte boundary, transactions rise at 32 bytes.
        assert rows[2]["transactions_per_nnz"] == pytest.approx(rows[8]["transactions_per_nnz"], rel=0.2)
        assert rows[64]["requests_per_nnz"] > rows[16]["requests_per_nnz"]

    def test_fig9_speedups_monotone_in_s_per(self):
        rows = run_experiment("fig9", QUICK)
        table = rows["speedup_vs_overlap"]
        for overlap in (0.1, 0.9):
            assert table[(8, overlap)] >= table[(2, overlap)] * 0.9
        assert format_experiment("fig9", rows)

    def test_fig11_rows_and_thread_utilization(self):
        rows = run_experiment("fig11", QUICK)
        for row in rows.values():
            assert row["speedup_over_pygt"] > 1.0
            assert row["speedup_over_pygt_g"] > 0.5
        util = thread_utilization()
        assert util["pipad_thread_utilization"] > util["pygt_g_thread_utilization"]
        sens = dimension_sensitivity(QUICK)
        assert all(v > 1.0 for v in sens.values())

    def test_space_overhead_between_csr_and_coo(self):
        rows = run_experiment("space_overhead", QUICK)
        for row in rows.values():
            assert row["csr_bytes"] <= row["sliced_csr_bytes"]
            assert row["sliced_over_coo"] <= 1.05

    def test_fig10_and_table2_quick(self):
        rows = run_experiment("fig10", QUICK)
        table = speedups(rows)
        for row in table.values():
            assert row["PyGT"] == pytest.approx(1.0)
            assert row["PiPAD"] > 1.0
        util = run_experiment("table2", QUICK.with_overrides(methods=("PyGT", "PiPAD")))
        for row in util.values():
            assert 0 < row["PyGT"] <= 100.0
        assert format_experiment("fig10", rows)

    def test_fig3_breakdown_quick(self):
        rows = run_experiment("fig3", QUICK)
        for row in rows.values():
            total = row["transfer_fraction"] + row["compute_fraction"] + row["cpu_fraction"]
            assert total == pytest.approx(1.0, abs=1e-6)
        assert format_experiment("fig3", rows)

    def test_fig4_breakdown_quick(self):
        rows = run_experiment("fig4", QUICK)
        for row in rows.values():
            total = row["gnn_fraction"] + row["rnn_fraction"] + row["other_fraction"]
            assert total == pytest.approx(1.0, abs=1e-6)
            assert row["gnn_fraction"] > 0
        assert format_experiment("fig4", rows)
