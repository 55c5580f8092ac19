"""Tests for the GPU specs, memory/warp/load-balance models and kernel costs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    GPUSpec,
    HostSpec,
    KernelCost,
    PCIeSpec,
    analyze_block_work,
    baseline_active_thread_ratio,
    block_work_from_row_nnz,
    block_work_from_slice_nnz,
    choose_coalesce_num,
    coalesced_active_thread_ratio,
    contiguous_bytes_cost,
    row_access,
)
from repro.gpu.load_balance import sliced_vs_csr_balance


class TestSpecs:
    def test_default_peak_flops_reasonable(self, gpu_spec):
        assert 10e12 < gpu_spec.peak_flops < 20e12

    def test_memory_bytes(self, gpu_spec):
        assert gpu_spec.memory_bytes == 16 * 1024**3

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            GPUSpec(num_sms=0)
        with pytest.raises(ValueError):
            GPUSpec(memory_efficiency=1.5)

    def test_pcie_transfer_time_monotone_in_bytes(self):
        pcie = PCIeSpec()
        assert pcie.transfer_seconds(2e6) > pcie.transfer_seconds(1e6)
        assert pcie.transfer_seconds(0) == 0.0

    def test_pcie_pageable_slower_than_pinned(self):
        pcie = PCIeSpec()
        assert pcie.transfer_seconds(1e8, pinned=False) > pcie.transfer_seconds(1e8, pinned=True)

    def test_pcie_negative_rejected(self):
        with pytest.raises(ValueError):
            PCIeSpec().transfer_seconds(-1)

    def test_host_spec_defaults(self):
        host = HostSpec()
        assert host.dispatch_overhead_us > host.graph_dispatch_overhead_us


class TestMemoryModel:
    def test_bandwidth_unsaturation_regime(self, gpu_spec):
        access = row_access(2, gpu_spec)
        assert access.transactions == 1 and access.requests == 1
        assert access.wasted_bytes == 32 - 8

    def test_request_burst_regime(self, gpu_spec):
        access = row_access(64, gpu_spec)
        assert access.requests == 2 and access.transactions == 8

    def test_vectorized_reduces_requests_not_transactions(self, gpu_spec):
        scalar = row_access(128, gpu_spec)
        vector = row_access(128, gpu_spec, vectorized=True)
        assert vector.requests < scalar.requests
        assert vector.transactions == scalar.transactions

    def test_contiguous_bytes_cost(self, gpu_spec):
        cost = contiguous_bytes_cost(1024, gpu_spec)
        assert cost.transactions == 32 and cost.requests == 8

    def test_invalid_dims_rejected(self, gpu_spec):
        with pytest.raises(ValueError):
            row_access(0, gpu_spec)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 512))
    def test_property_transactions_cover_useful_bytes(self, dim):
        """Transactions always move at least the useful bytes, in 32-byte units."""
        spec = GPUSpec()
        access = row_access(dim, spec)
        assert access.transactions * spec.transaction_bytes >= access.useful_bytes
        assert access.requests <= access.transactions or access.useful_bytes <= spec.transaction_bytes


class TestWarpModel:
    def test_baseline_ratio_small_dim(self, gpu_spec):
        assert baseline_active_thread_ratio(2, gpu_spec) == pytest.approx(2 / 32)
        assert baseline_active_thread_ratio(64, gpu_spec) == 1.0

    def test_coalesce_num_bounds(self, gpu_spec):
        assert choose_coalesce_num(2, gpu_spec) == 4   # capped at 4 thread groups
        assert choose_coalesce_num(8, gpu_spec) == 4
        assert choose_coalesce_num(16, gpu_spec) == 2
        assert choose_coalesce_num(32, gpu_spec) == 1

    def test_coalesced_ratio_never_below_baseline(self, gpu_spec):
        for dim in (1, 2, 4, 8, 16, 31, 32, 64):
            assert coalesced_active_thread_ratio(dim, gpu_spec) >= baseline_active_thread_ratio(
                dim, gpu_spec
            )


class TestLoadBalance:
    def test_uniform_work_is_balanced(self, gpu_spec):
        report = analyze_block_work(np.full(100, 10.0), gpu_spec)
        assert report.imbalance == pytest.approx(1.0, abs=0.15)

    def test_skewed_work_is_imbalanced(self, gpu_spec):
        work = np.ones(64)
        work[0] = 1000.0
        report = analyze_block_work(work, gpu_spec)
        assert report.imbalance > 2.0

    def test_scale_reduces_tail_effect(self, gpu_spec):
        work = np.ones(64)
        work[0] = 1000.0
        small = analyze_block_work(work, gpu_spec, scale=1.0)
        large = analyze_block_work(work, gpu_spec, scale=1000.0)
        assert large.imbalance < small.imbalance

    def test_sliced_mapping_more_balanced_than_rows(self, gpu_spec):
        from repro.graph import CSRMatrix, SlicedCSRMatrix

        # a power-law-like row-size spread: a few rows far over one slice
        row_sizes = [400, 150, 90, 40, 10] + [2] * 60
        rows = np.repeat(np.arange(len(row_sizes)), row_sizes)
        cols = np.concatenate([np.arange(k) for k in row_sizes])
        csr = CSRMatrix.from_edges(rows, cols, (512, 512))
        row_report = analyze_block_work(block_work_from_row_nnz(csr.row_nnz()), gpu_spec)
        sliced = SlicedCSRMatrix.from_csr(csr)
        slice_report = analyze_block_work(
            block_work_from_slice_nnz(sliced.slice_nnz()), gpu_spec
        )
        assert slice_report.imbalance <= row_report.imbalance + 1e-9

    def test_empty_work(self, gpu_spec):
        report = analyze_block_work(np.zeros(0), gpu_spec)
        assert report.imbalance == 1.0

    def test_sliced_vs_csr_balance(self, small_graph):
        report = sliced_vs_csr_balance(small_graph)
        assert report["csr_imbalance"] >= 1.0
        assert report["sliced_imbalance"] >= 1.0
        assert report["improvement"] >= 1.0 - 1e-9


class TestKernelCost:
    def test_memory_bound_kernel_time(self, gpu_spec):
        cost = KernelCost(name="k", mem_transactions=1e6)
        expected = 1e6 * 32 / gpu_spec.effective_bandwidth
        assert cost.execution_seconds(gpu_spec) == pytest.approx(expected)

    def test_compute_bound_kernel_time(self, gpu_spec):
        cost = KernelCost(name="k", flops=1e12)
        assert cost.execution_seconds(gpu_spec) == pytest.approx(1e12 / gpu_spec.peak_flops)

    def test_low_thread_ratio_slows_compute(self, gpu_spec):
        fast = KernelCost(name="k", flops=1e12, active_thread_ratio=1.0)
        slow = KernelCost(name="k", flops=1e12, active_thread_ratio=0.25)
        assert slow.execution_seconds(gpu_spec) == pytest.approx(4 * fast.execution_seconds(gpu_spec))

    def test_imbalance_multiplies_time(self, gpu_spec):
        base = KernelCost(name="k", mem_transactions=1e6)
        imbalanced = KernelCost(name="k", mem_transactions=1e6, imbalance=2.0)
        assert imbalanced.execution_seconds(gpu_spec) == pytest.approx(
            2 * base.execution_seconds(gpu_spec)
        )
        assert imbalanced.balanced_seconds(gpu_spec) == pytest.approx(
            base.execution_seconds(gpu_spec)
        )

    def test_bandwidth_efficiency_slows_memory(self, gpu_spec):
        base = KernelCost(name="k", mem_transactions=1e6)
        derated = KernelCost(name="k", mem_transactions=1e6, bandwidth_efficiency=0.5)
        assert derated.execution_seconds(gpu_spec) == pytest.approx(
            2 * base.execution_seconds(gpu_spec)
        )

    def test_scaled_multiplies_extensive_quantities(self, gpu_spec):
        cost = KernelCost(name="k", flops=10, mem_transactions=20, mem_requests=5, num_blocks=4)
        scaled = cost.scaled(3.0)
        assert scaled.flops == 30 and scaled.mem_transactions == 60 and scaled.num_blocks == 12
        assert scaled.active_thread_ratio == cost.active_thread_ratio

    def test_roofline_is_kept_per_spec_and_matches_a_fresh_evaluation(self, gpu_spec):
        cost = KernelCost(name="k", flops=3e9, mem_transactions=7e6, imbalance=1.5)
        slow = GPUSpec(memory_bandwidth_gbs=100.0)

        def fresh(spec):
            return max(cost.compute_seconds(spec), cost.memory_seconds(spec))

        for spec in (gpu_spec, slow, gpu_spec, GPUSpec(), slow):
            assert cost.balanced_seconds(spec) == fresh(spec)
            assert cost.execution_seconds(spec) == fresh(spec) * cost.imbalance
        # the kept value is not a field: equality and hashing ignore it
        twin = KernelCost(name="k", flops=3e9, mem_transactions=7e6, imbalance=1.5)
        assert twin == cost and hash(twin) == hash(cost)

    @pytest.mark.parametrize("parts", [1, 3, 4, 8])
    def test_split_is_an_equal_share_built_once(self, parts):
        cost = KernelCost(name="k", flops=12.0, mem_transactions=20.0, num_blocks=8, launches=5)
        share = cost.split(parts)
        factor = 1.0 / parts
        assert share == cost.scaled(factor, launches=max(1, round(cost.launches * factor)))
        assert share.launches >= 1
        assert cost.split(parts) is share

    def test_invalid_costs_rejected(self):
        with pytest.raises(ValueError):
            KernelCost(name="k", category="bogus")
        with pytest.raises(ValueError):
            KernelCost(name="k", active_thread_ratio=0.0)
        with pytest.raises(ValueError):
            KernelCost(name="k", imbalance=0.5)
        with pytest.raises(ValueError):
            KernelCost(name="k", flops=-1)

    @pytest.mark.parametrize(
        "field",
        ["flops", "global_read_bytes", "global_write_bytes", "mem_requests",
         "mem_transactions", "imbalance"],
    )
    def test_nan_costs_rejected(self, field):
        # ``nan < 0`` is False, so a plain negativity test lets NaN through
        with pytest.raises(ValueError, match=field):
            KernelCost(name="k", **{field: float("nan")})
