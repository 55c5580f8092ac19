"""Tests for the timeline scheduler, the simulated device and the profiler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu import (
    GPUSpec,
    HostSpec,
    KernelCost,
    KernelCostCollector,
    OutOfMemoryError,
    SimulatedGPU,
    Timeline,
    estimate_event_cost,
)
from repro.kernels.gemm import update_gemm_cost
from repro.tensor import Tensor, observe_ops, ops, op_scope
from repro.tensor.function import OpEvent


class TestTimeline:
    def test_same_stream_serializes(self):
        timeline = Timeline()
        a = timeline.submit(label="a", kind="kernel", resource="compute", duration=1.0, stream="s")
        b = timeline.submit(label="b", kind="kernel", resource="compute", duration=1.0, stream="s")
        assert b.start == pytest.approx(a.end)
        assert timeline.makespan() == pytest.approx(2.0)

    def test_different_resources_overlap(self):
        timeline = Timeline()
        timeline.submit(label="k", kind="kernel", resource="compute", duration=1.0, stream="a")
        timeline.submit(label="t", kind="h2d", resource="pcie_h2d", duration=1.0, stream="b")
        assert timeline.makespan() == pytest.approx(1.0)

    def test_dependencies_respected(self):
        timeline = Timeline()
        a = timeline.submit(label="a", kind="h2d", resource="pcie_h2d", duration=2.0, stream="copy")
        b = timeline.submit(
            label="b", kind="kernel", resource="compute", duration=1.0, stream="c", depends_on=[a]
        )
        assert b.start == pytest.approx(2.0)

    def test_same_resource_serializes_across_streams(self):
        timeline = Timeline()
        timeline.submit(label="a", kind="kernel", resource="compute", duration=1.0, stream="s1")
        b = timeline.submit(label="b", kind="kernel", resource="compute", duration=1.0, stream="s2")
        assert b.start == pytest.approx(1.0)

    def test_busy_time_unions_intervals(self):
        timeline = Timeline()
        timeline.submit(label="a", kind="kernel", resource="compute", duration=1.0, stream="s1")
        timeline.submit(label="b", kind="h2d", resource="pcie_h2d", duration=0.5, stream="s2")
        assert timeline.busy_time(["compute", "pcie_h2d"]) == pytest.approx(1.0)

    def test_busy_time_accepts_a_one_shot_iterable(self):
        timeline = Timeline()
        timeline.submit(label="a", kind="kernel", resource="compute", duration=1.0, stream="s1")
        timeline.submit(label="b", kind="h2d", resource="pcie_h2d", duration=2.0, stream="s2")
        timeline.submit(
            label="c", kind="kernel", resource="compute", duration=1.0, stream="s3", not_before=2.0
        )
        resources = ["compute", "pcie_h2d"]
        assert timeline.busy_time(resources) == 3.0
        # A generator used to be exhausted by the first op's membership test.
        assert timeline.busy_time(r for r in resources) == 3.0

    def test_utilization_definitions(self):
        timeline = Timeline()
        timeline.submit(label="cpu", kind="cpu", resource="cpu", duration=1.0, stream="default")
        timeline.submit(label="k", kind="kernel", resource="compute", duration=1.0, stream="default")
        assert timeline.sm_utilization() == pytest.approx(0.5)
        assert timeline.gpu_utilization() == pytest.approx(0.5)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timeline().submit(label="x", kind="cpu", resource="cpu", duration=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, bad):
        timeline = Timeline()
        with pytest.raises(ValueError, match="duration must be finite"):
            timeline.submit(label="x", kind="kernel", resource="compute", duration=bad)
        # nothing was placed: the resource is still free and the totals clean
        op = timeline.submit(label="y", kind="kernel", resource="compute", duration=1.0)
        assert op.start == 0.0 and op.op_id == 0
        assert timeline.kind_seconds() == {"kernel": 1.0}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_not_before_rejected(self, bad):
        with pytest.raises(ValueError, match="not_before must be finite"):
            Timeline().submit(
                label="x", kind="cpu", resource="cpu", duration=1.0, not_before=bad
            )

    def test_reset(self):
        timeline = Timeline()
        timeline.submit(label="a", kind="kernel", resource="compute", duration=1.0)
        timeline.reset()
        assert timeline.makespan() == 0.0 and not timeline.ops


class TestSimulatedGPU:
    def test_transfer_and_kernel_accounting(self, device):
        transfer = device.transfer_h2d(12e9 / 1000)  # ~1 ms at 12 GB/s
        cost = KernelCost(name="k", category="aggregation", mem_transactions=1e6)
        (kernel,) = device.launch_kernels([cost], depends_on=[transfer])
        assert kernel.start >= transfer.end
        assert device.kernel_stats["aggregation"].launches == 1
        assert device.elapsed_seconds() == pytest.approx(kernel.end)

    def test_launch_overhead_depends_on_cuda_graph(self, gpu_spec):
        eager = SimulatedGPU(gpu_spec)
        graphed = SimulatedGPU(gpu_spec, use_cuda_graph=True)
        cost = KernelCost(name="k", flops=1.0)
        assert eager.launch_kernel(cost).duration > graphed.launch_kernel(cost).duration

    @pytest.mark.parametrize(
        "graph_mode, stream, seconds",
        [(False, "compute", 7 * 10.0 * 1e-6), (True, "cpu", 7 * 0.8 * 1e-6)],
    )
    def test_dispatch_charges_the_mode_overhead(self, graph_mode, stream, seconds):
        """Eager dispatch (10 µs/launch) blocks the caller's compute stream; a
        CUDA-Graph replay (0.8 µs/launch) goes to the overlappable cpu stream."""
        device = SimulatedGPU(host=HostSpec(), use_cuda_graph=graph_mode)
        op = device.dispatch(7, label="dispatch_b3", stream="compute")
        assert (op.label, op.kind, op.resource, op.stream) == (
            "dispatch_b3", "cpu", "cpu", stream,
        )
        assert (op.start, op.end.hex()) == (0.0, seconds.hex())

    def test_launch_kernels_serializes_batch(self, device):
        costs = [KernelCost(name=f"k{i}", flops=1e9) for i in range(3)]
        ops_ = device.launch_kernels(costs)
        assert len(ops_) == 3
        assert ops_[1].start >= ops_[0].end

    def test_memory_ledger(self, device):
        device.malloc("a", 1024)
        device.malloc("b", 2048)
        assert device.allocated_bytes == 3072 and device.peak_bytes == 3072
        device.free("a")
        assert device.allocated_bytes == 2048
        with pytest.raises(KeyError):
            device.free("missing")

    def test_oom_raised(self, device):
        with pytest.raises(OutOfMemoryError):
            device.malloc("huge", device.spec.memory_bytes + 1)

    def test_duplicate_allocation_rejected(self, device):
        device.malloc("x", 10)
        with pytest.raises(ValueError):
            device.malloc("x", 10)

    def test_average_thread_ratio_weighted(self, device):
        device.launch_kernel(
            KernelCost(name="a", category="aggregation", mem_transactions=1e6, active_thread_ratio=0.25)
        )
        device.launch_kernel(
            KernelCost(name="b", category="update", mem_transactions=1e6, active_thread_ratio=1.0)
        )
        ratio = device.average_thread_ratio()
        assert 0.25 < ratio < 1.0

    def test_reset_clears_state(self, device):
        device.malloc("x", 10)
        device.launch_kernel(KernelCost(name="k", flops=1.0))
        device.reset()
        assert device.allocated_bytes == 0
        assert device.elapsed_seconds() == 0.0
        assert device.kernel_stats["other"].launches == 0

    def test_breakdown_keys(self, device):
        device.transfer_h2d(1e6)
        device.launch_kernel(KernelCost(name="k", flops=1e9))
        breakdown = device.breakdown()
        assert set(breakdown) >= {"h2d", "kernel", "makespan", "gpu_utilization", "sm_utilization"}


class TestProfiler:
    def test_matmul_event_estimated(self, gpu_spec):
        event = OpEvent(
            name="matmul", phase="forward", input_shapes=((8, 4), (4, 6)),
            output_shapes=((8, 6),), attrs={"scope": "update"},
        )
        cost = estimate_event_cost(event, gpu_spec)
        assert cost.flops == pytest.approx(2 * 8 * 4 * 6)
        assert cost.category == "update"

    def test_reshape_is_free(self, gpu_spec):
        event = OpEvent(name="reshape", phase="forward", input_shapes=((8, 4),), output_shapes=((32,),))
        assert estimate_event_cost(event, gpu_spec) is None

    def test_explicit_kernel_cost_passthrough(self, gpu_spec):
        explicit = KernelCost(name="custom", category="aggregation", flops=123.0)
        event = OpEvent(
            name="spmm", phase="forward", input_shapes=(), output_shapes=(),
            attrs={"kernel_cost": explicit},
        )
        assert estimate_event_cost(event, gpu_spec) is explicit

    def test_collector_scales_node_dim_ops_only(self, gpu_spec):
        collector = KernelCostCollector(gpu_spec, num_nodes=50, scale=10.0)
        node_event = OpEvent(
            name="sigmoid", phase="forward", input_shapes=((50, 4),), output_shapes=((50, 4),)
        )
        other_event = OpEvent(
            name="sigmoid", phase="forward", input_shapes=((6, 4),), output_shapes=((6, 4),)
        )
        collector(node_event)
        collector(other_event)
        scaled, unscaled = collector.drain()
        assert scaled.flops == pytest.approx(10.0 * unscaled.flops * (50 * 4) / (6 * 4), rel=1e-6)

    def test_collector_does_not_rescale_explicit_costs(self, gpu_spec):
        collector = KernelCostCollector(gpu_spec, num_nodes=50, scale=10.0)
        explicit = KernelCost(name="custom", flops=100.0)
        collector(OpEvent(
            name="spmm", phase="forward", input_shapes=((50, 4),), output_shapes=((50, 4),),
            attrs={"kernel_cost": explicit},
        ))
        assert collector.drain()[0] is explicit

    def test_collector_cost_equals_a_fresh_estimate(self, gpu_spec):
        node_event = OpEvent(
            name="matmul", phase="backward", input_shapes=((50, 6),),
            output_shapes=((50, 4), (4, 6)), attrs={"scope": "rnn"},
        )
        other_event = OpEvent(
            name="tanh", phase="forward", input_shapes=((6, 4),), output_shapes=((6, 4),)
        )
        collector = KernelCostCollector(gpu_spec, num_nodes=50, scale=10.0)
        for _ in range(2):
            collector(node_event)
            collector(other_event)
        scaled, unscaled, scaled_again, unscaled_again = collector.drain()
        assert scaled == estimate_event_cost(node_event, gpu_spec).scaled(10.0)
        assert unscaled == estimate_event_cost(other_event, gpu_spec)
        # the second sighting is served from the memo
        assert scaled_again is scaled and unscaled_again is unscaled

    def test_memo_keys_on_every_collector_input(self, gpu_spec):
        event = OpEvent(
            name="sigmoid", phase="forward", input_shapes=((50, 4),), output_shapes=((50, 4),),
            attrs={"scope": "rnn"},
        )

        def cost_through(spec, num_nodes, scale):
            collector = KernelCostCollector(spec, num_nodes=num_nodes, scale=scale)
            collector(event)
            return collector.drain()[0]

        base = cost_through(gpu_spec, 50, 10.0)
        fresh = estimate_event_cost(event, gpu_spec)
        assert cost_through(gpu_spec, 60, 10.0) == fresh
        assert cost_through(gpu_spec, 50, 4.0) == fresh.scaled(4.0)
        assert cost_through(gpu_spec, 50, 1.0) == fresh
        wide = GPUSpec(transaction_bytes=64)
        assert cost_through(wide, 50, 10.0) == estimate_event_cost(event, wide).scaled(10.0)
        assert cost_through(wide, 50, 10.0) != base
        assert cost_through(gpu_spec, 50, 10.0) is base

    def test_full_memo_is_emptied_and_costs_stay_exact(self, gpu_spec, monkeypatch):
        from repro.gpu import profiler

        monkeypatch.setattr(profiler, "_MEMO_LIMIT", 2)
        events = [
            OpEvent(name="sigmoid", phase="forward", input_shapes=((n, 4),), output_shapes=((n, 4),))
            for n in (3, 5, 7, 3)
        ]
        collector = KernelCostCollector(gpu_spec, num_nodes=5, scale=2.0)
        for event in events:
            collector(event)
        expected = [estimate_event_cost(e, gpu_spec) for e in events]
        expected[1] = expected[1].scaled(2.0)
        assert collector.drain() == expected
        assert len(collector._memo) <= 2

    def test_update_gemm_cost_memo_is_exact_and_still_validates(self, gpu_spec):
        fresh = update_gemm_cost.__wrapped__(100, 16, 32, gpu_spec, reuse_group=4, scale=2.0)
        assert update_gemm_cost(100, 16, 32, gpu_spec, reuse_group=4, scale=2.0) == fresh
        for _ in range(2):
            with pytest.raises(ValueError, match="reuse_group must be > 0"):
                update_gemm_cost(100, 16, 32, gpu_spec, reuse_group=0)

    def test_collector_integrates_with_autograd(self, gpu_spec):
        collector = KernelCostCollector(gpu_spec, num_nodes=8, scale=1.0)
        x = Tensor(np.random.default_rng(0).random((8, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(np.random.default_rng(1).random((4, 3)).astype(np.float32), requires_grad=True)
        with observe_ops(collector):
            with op_scope("rnn"):
                loss = ops.sum(ops.sigmoid(x @ w))
            loss.backward()
        costs = collector.drain()
        assert collector.events_seen > 0
        assert any(c.category == "rnn" for c in costs)
        assert sum(c.launches for c in costs) >= 4
