"""Edge-case tests for the serving metrics window.

Pins down the degenerate aggregates benchmarks would otherwise silently
mis-read: empty-window percentiles must be NaN (not a too-good-to-be-true
0.0), a single request collapses every percentile to its latency, and the
metrics summary keeps latency extras in milliseconds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.serving import BatchRecord, RequestRecord, ServingMetrics, ServingReport


def record(rid: int, arrival: float, completion: float) -> RequestRecord:
    return RequestRecord(
        request_id=rid,
        batch_id=0,
        arrival_time=arrival,
        completion_time=completion,
        num_nodes=1,
    )


class TestEmptyWindow:
    def test_percentiles_are_nan_not_zero(self):
        """Regression: an empty window read as p50 == 0.0 — "perfect latency"."""
        metrics = ServingMetrics()
        assert math.isnan(metrics.latency_percentile(50.0))
        assert math.isnan(metrics.p50_latency)
        assert math.isnan(metrics.p99_latency)
        assert math.isnan(metrics.mean_latency)

    def test_nan_latency_never_compares_as_fast(self):
        empty = ServingMetrics()
        loaded = ServingMetrics()
        loaded.record_request(record(0, 0.0, 1.0))
        # The failure mode the fix prevents: 0.0 < any real latency.
        assert not empty.mean_latency < loaded.mean_latency
        assert not empty.mean_latency > loaded.mean_latency

    def test_counts_and_rates_stay_zero(self):
        metrics = ServingMetrics()
        assert metrics.num_requests == 0
        assert metrics.throughput_rps() == 0.0
        assert metrics.cache_hit_rate == 0.0
        assert metrics.mean_batch_size() == 0.0

    def test_summary_serializes_nan(self):
        summary = ServingMetrics().summary()
        assert math.isnan(summary["p50_latency_ms"])
        assert summary["requests"] == 0.0


class TestSingleRequest:
    def test_all_percentiles_equal_the_single_latency(self):
        metrics = ServingMetrics()
        metrics.record_request(record(0, 2.0, 2.25))
        assert metrics.p50_latency == pytest.approx(0.25)
        assert metrics.p99_latency == pytest.approx(0.25)
        assert metrics.p50_latency == metrics.p99_latency
        assert metrics.mean_latency == pytest.approx(0.25)

    def test_single_instant_request_throughput_is_inf(self):
        metrics = ServingMetrics()
        metrics.record_request(record(0, 1.0, 1.0))
        assert metrics.throughput_rps() == float("inf")


class TestUnits:
    def make_report(self, latencies_s):
        metrics = ServingMetrics()
        for rid, latency in enumerate(latencies_s):
            metrics.record_request(record(rid, 0.0, latency))
        return ServingReport(
            engine="PiPAD-Serve",
            model="tgcn",
            dataset="unit-test",
            simulated_seconds=1.0,
            wall_seconds=0.1,
            metrics=metrics,
        )

    def test_to_result_latency_units_stay_in_ms(self):
        """Regression: latency extras are milliseconds (seconds * 1e3)."""
        report = self.make_report([0.002, 0.004, 0.006])
        summary = report.metrics.summary()
        assert summary["mean_latency_ms"] == pytest.approx(4.0)
        assert summary["p50_latency_ms"] == pytest.approx(4.0)
        assert summary["p50_latency_ms"] == pytest.approx(
            report.p50_latency * 1e3
        )
        # And the raw report quantities stay in seconds.
        assert report.p50_latency == pytest.approx(0.004)

    def test_percentile_ordering_preserved(self):
        latencies = np.linspace(0.001, 0.1, 100)
        report = self.make_report(latencies.tolist())
        assert report.p99_latency > report.p50_latency > 0
        assert report.metrics.latency_percentile(0.0) == pytest.approx(0.001)
        assert report.metrics.latency_percentile(100.0) == pytest.approx(0.1)
