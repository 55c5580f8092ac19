"""Tests for the per-cost launch terms a device places and charges kernels from.

:meth:`KernelCost.launch_terms` keeps one cost's duration, attrs template and
statistics increments per spec and launch overhead.  These tests pin that
launching from the kept terms is indistinguishable from deriving everything
per launch: the statistics are a sequential per-cost ``+=`` in launch order,
every device gets its own duration, every op of one cost shares its read-only
attrs template until it is annotated, and a chain-built op is an ordinary
:class:`TimelineOp`.
"""

from __future__ import annotations

import pytest

from repro.gpu import GPUSpec, KernelCost, SimulatedGPU, Timeline
from repro.gpu.kernel_cost import CATEGORY_AGGREGATION, CATEGORY_RNN, CATEGORY_UPDATE
from repro.gpu.timeline import TimelineOp


def _mixed_costs():
    """A chain mixing categories whose float increments do not associate."""
    categories = (CATEGORY_AGGREGATION, CATEGORY_UPDATE, CATEGORY_RNN, CATEGORY_UPDATE)
    return [
        KernelCost(
            name=f"k{i}",
            category=categories[i % len(categories)],
            flops=1e9 / (i + 3) + 0.1 * i,
            mem_requests=7e5 / (i + 7),
            mem_transactions=3e6 / (i + 11) + 1e-3,
            active_thread_ratio=1.0 / (1 + (i % 5)),
            imbalance=1.0 + i / 7.0,
            launches=1 + i % 3,
        )
        for i in range(12)
    ]


def _overhead_us(device):
    spec = device.spec
    if device.use_cuda_graph:
        return spec.cudagraph_launch_overhead_us
    return spec.kernel_launch_overhead_us


def _stats_hex(stats):
    """``float.hex`` of every field per category (records or dicts of fields)."""
    return {
        cat: {
            name: float(value).hex()
            for name, value in (record if isinstance(record, dict) else vars(record)).items()
        }
        for cat, record in stats.items()
    }


def _increments(cost, spec):
    """One launch's statistics increments, derived from the cost afresh."""
    balanced = cost.balanced_seconds(spec)
    seconds = balanced * cost.imbalance
    return {
        "seconds": seconds,
        "launches": cost.launches,
        "flops": cost.flops,
        "mem_requests": cost.mem_requests,
        "mem_transactions": cost.mem_transactions,
        "balanced_seconds": balanced,
        "weighted_thread_ratio": cost.active_thread_ratio * max(seconds, 1e-12),
    }


class TestSequentialStatistics:
    def test_chains_charge_like_a_sequential_per_cost_fold(self, gpu_spec):
        device = SimulatedGPU(gpu_spec)
        costs = _mixed_costs()
        # the device already holds totals before the chains under test
        device.launch_kernels(costs[::-1], label="warm")
        start = {cat: dict(vars(stats)) for cat, stats in device.kernel_stats.items()}
        sequential = {cat: dict(fields) for cat, fields in start.items()}
        chain_sums = {cat: dict.fromkeys(fields, 0.0) for cat, fields in start.items()}
        for _ in range(2):
            device.launch_kernels(costs, label="chain")
            # folds written as loops: ``sum()`` of floats is compensated on
            # CPython 3.12 and plain on 3.10/3.11
            for cost in costs:
                for name, value in _increments(cost, gpu_spec).items():
                    sequential[cost.category][name] += value
                    chain_sums[cost.category][name] += value
        assert _stats_hex(device.kernel_stats) == _stats_hex(sequential)
        # the data tells the sequential fold from one that adds each
        # category's chain total at once, so a pre-summing device fails here
        presummed = {
            cat: {name: start[cat][name] + chain_sums[cat][name] for name in fields}
            for cat, fields in start.items()
        }
        assert _stats_hex(presummed) != _stats_hex(sequential)


class TestPerDeviceTerms:
    def test_each_device_gets_its_own_duration(self):
        spec = GPUSpec()
        twin = GPUSpec()
        slow = GPUSpec(memory_bandwidth_gbs=100.0)
        assert twin == spec and twin is not spec
        cost = KernelCost(name="k", flops=2e9, mem_transactions=4e6, imbalance=1.25, launches=3)
        devices = [
            SimulatedGPU(spec),
            SimulatedGPU(spec, use_cuda_graph=True),
            SimulatedGPU(twin),
            SimulatedGPU(slow),
            SimulatedGPU(twin, use_cuda_graph=True),
        ]
        # interleave the devices, so every launch finds another device's terms kept
        for device in devices + devices[::-1]:
            expected = (
                cost.execution_seconds(device.spec)
                + cost.launches * _overhead_us(device) * 1e-6
            )
            op = device.launch_kernel(cost)
            assert op.end.hex() == (op.start + expected).hex()
        eager, graphed = devices[0].launch_kernel(cost), devices[1].launch_kernel(cost)
        assert eager.duration > graphed.duration

    def test_terms_are_kept_per_spec_and_overhead(self, gpu_spec):
        cost = KernelCost(name="k", flops=1e9, launches=2)
        terms = cost.launch_terms(gpu_spec, 6.5)
        assert cost.launch_terms(gpu_spec, 6.5) is terms
        other = cost.launch_terms(gpu_spec, 1.2)
        assert other.duration < terms.duration
        assert other.seconds == terms.seconds
        assert cost.launch_terms(gpu_spec, 6.5) == terms
        # the kept terms are not a field: equality and hashing ignore them
        twin = KernelCost(name="k", flops=1e9, launches=2)
        assert twin == cost and hash(twin) == hash(cost)


class TestOwnAttrs:
    def test_annotating_one_op_reaches_no_other(self, gpu_spec):
        device = SimulatedGPU(gpu_spec)
        cost, other = KernelCost(name="a", launches=2), KernelCost(name="b")
        shared = cost.launch_terms(gpu_spec, _overhead_us(device)).attrs
        template = dict(shared)
        ops = device.launch_kernels([cost, other, cost], label="fwd")
        assert ops[0].attrs is shared and ops[2].attrs is shared
        with pytest.raises(TypeError):
            ops[0].attrs["bubble_from"] = 0.5  # type: ignore[index]
        # what PipelineTrainer._launch_chained records on a stalled chain's head
        device.timeline.annotate(ops[0], bubble_from=0.5)
        head, middle, tail = device.timeline.ops
        assert head.attrs == {**template, "bubble_from": 0.5}
        assert tail.attrs == template and tail.attrs is shared
        assert "bubble_from" not in middle.attrs
        again = device.launch_kernels([cost, cost], label="fwd")
        assert [op.attrs for op in again] == [template, template]
        assert cost.launch_terms(gpu_spec, _overhead_us(device)).attrs == template
        assert template == {"category": cost.category, "launches": 2}


class TestChainBuiltOps:
    def test_chain_op_is_a_timeline_op_equal_to_a_keyword_built_one(self, gpu_spec):
        device = SimulatedGPU(gpu_spec)
        first = device.launch_kernel(KernelCost(name="k0", flops=1e9))
        costs = [KernelCost(name="k1", flops=2e9), KernelCost(name="k2", launches=2)]
        ops = device.launch_kernels(costs, label="chain", depends_on=[first])
        start, deps = first.end, (first.uid,)
        for index, (op, cost) in enumerate(zip(ops, costs)):
            end = start + cost.launch_terms(gpu_spec, _overhead_us(device)).duration
            assert type(op) is TimelineOp
            assert op == TimelineOp(
                op_id=index + 1,
                label=f"chain[{index}]:{cost.name}",
                kind="kernel",
                resource="compute",
                stream="compute",
                start=start,
                end=end,
                attrs={"category": cost.category, "launches": cost.launches},
                uid=op.uid,
                deps=deps,
            )
            assert op.duration == end - start
            start, deps = end, (op.uid,)
        assert first.uid < ops[0].uid < ops[1].uid

    def test_submit_builds_a_timeline_op(self):
        timeline = Timeline()
        op = timeline.submit(
            label="a", kind="kernel", resource="compute", duration=1.0, attrs={"x": 1}
        )
        assert type(op) is TimelineOp
        assert op == TimelineOp(
            op_id=0, label="a", kind="kernel", resource="compute", stream="default",
            start=0.0, end=1.0, attrs={"x": 1}, uid=op.uid, deps=(),
        )
        with pytest.raises(AttributeError):
            op.end = 2.0
