"""Exactness of the timeline's running totals against a brute-force rescan.

:class:`~repro.gpu.timeline.Timeline` keeps its makespan and per-kind totals
as it submits, and keeps each resource's busy intervals merged into
components as ops arrive, so busy time merges a few components instead of
sorting every op.  :meth:`~repro.gpu.timeline.Timeline.submit_chain` places a
whole kernel chain in one call.  Simulated time must not move by a single
bit because of either, so every statistic is compared with ``==`` against
the straightforward rescan below, and every chained op against a twin
timeline driven one ``submit`` per op, over random submit sequences.
"""

from __future__ import annotations

import math
from itertools import combinations
from types import MappingProxyType
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import SimulatedGPU
from repro.gpu.kernel_cost import CATEGORIES, KernelCost
from repro.gpu.timeline import RESOURCES, Timeline, TimelineOp

#: the canonical resources plus the device group's communication engine
ALL_RESOURCES = RESOURCES + ("peer_link",)
STREAMS = ("default", "compute", "copy", "comm")
KINDS = ("kernel", "h2d", "cpu", "collective")

# -- reference: rescan the whole op list on every query ---------------------


def rescan_makespan(ops: Sequence[TimelineOp]) -> float:
    return max((op.end for op in ops), default=0.0)


def rescan_kind_seconds(ops: Sequence[TimelineOp]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for op in ops:
        totals[op.kind] = totals.get(op.kind, 0.0) + (op.end - op.start)
    return totals


def rescan_busy_time(ops: Sequence[TimelineOp], resources: Sequence[str]) -> float:
    intervals = sorted(
        (op.start, op.end) for op in ops if op.resource in resources and op.end - op.start > 0
    )
    if not intervals:
        return 0.0
    busy = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            busy += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    return busy + (cur_end - cur_start)


def rescan_utilization(ops: Sequence[TimelineOp], resources: Sequence[str]) -> float:
    total = rescan_makespan(ops)
    if total == 0:
        return 0.0
    return min(1.0, rescan_busy_time(ops, resources) / total)


# -- generated submit sequences ----------------------------------------------

durations = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.sampled_from([1e-9, 0.1, 0.2, 0.3, 1.0 / 3.0]),
)
submits = st.fixed_dictionaries(
    {
        "resource": st.sampled_from(ALL_RESOURCES),
        "stream": st.sampled_from(STREAMS),
        "kind": st.sampled_from(KINDS),
        "duration": durations,
        "deps": st.lists(st.integers(min_value=0, max_value=10_000), max_size=3),
        "not_before": st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0)),
    }
)


def drive(timeline: Timeline, steps, placed: List[TimelineOp]) -> List[TimelineOp]:
    """Submit ``steps``; deps index into every op placed so far (any epoch)."""
    current: List[TimelineOp] = []
    for index, step in enumerate(steps):
        deps = [placed[i % len(placed)] for i in step["deps"]] if placed else []
        op = timeline.submit(
            label=f"op{index}",
            kind=step["kind"],
            resource=step["resource"],
            duration=step["duration"],
            stream=step["stream"],
            depends_on=deps,
            not_before=step["not_before"],
        )
        placed.append(op)
        current.append(op)
    return current


def assert_matches_rescan(timeline: Timeline, ops: Sequence[TimelineOp]) -> None:
    assert timeline.makespan() == rescan_makespan(ops)
    assert timeline.kind_seconds() == rescan_kind_seconds(ops)
    assert list(timeline.kind_seconds()) == list(rescan_kind_seconds(ops))
    for size in range(len(ALL_RESOURCES) + 1):
        for subset in combinations(ALL_RESOURCES, size):
            assert timeline.busy_time(subset) == rescan_busy_time(ops, subset)
    gpu = ("compute", "pcie_h2d", "pcie_d2h")
    assert timeline.gpu_utilization() == rescan_utilization(ops, gpu)
    assert timeline.sm_utilization() == rescan_utilization(ops, ("compute",))


class TestRunningTotalsAreExact:
    @settings(max_examples=60, deadline=None)
    @given(
        before=st.lists(submits, max_size=25),
        after=st.lists(submits, max_size=25),
    )
    def test_stats_equal_a_full_rescan_across_a_reset(self, before, after):
        timeline = Timeline()
        placed: List[TimelineOp] = []
        first = drive(timeline, before, placed)
        assert_matches_rescan(timeline, first)
        timeline.reset()
        assert_matches_rescan(timeline, [])
        second = drive(timeline, after, placed)
        assert_matches_rescan(timeline, second)
        assert timeline.ops == second

    def test_kind_seconds_returns_a_fresh_dict(self):
        timeline = Timeline()
        timeline.submit(label="k", kind="kernel", resource="compute", duration=1.0)
        timeline.kind_seconds()["kernel"] = 99.0
        assert timeline.kind_seconds() == {"kernel": 1.0}

    def test_totals_add_end_minus_start_not_the_duration(self):
        # 0.1 + 0.2 != 0.3 in binary: the op's own ``end - start`` is what
        # the rescan sums, so that is what the running total must add.
        timeline = Timeline()
        timeline.submit(label="a", kind="cpu", resource="cpu", duration=0.1)
        op = timeline.submit(label="b", kind="cpu", resource="cpu", duration=0.2)
        assert op.end - op.start != 0.2
        assert timeline.kind_seconds() == rescan_kind_seconds(timeline.ops)


class TestTimelineOpContract:
    def test_ops_are_immutable_and_unhashable(self):
        op = Timeline().submit(label="a", kind="kernel", resource="compute", duration=1.0)
        with pytest.raises(AttributeError):
            op.start = 5.0  # type: ignore[misc]
        with pytest.raises(TypeError):
            hash(op)
        assert op.duration == op.end - op.start == 1.0

    def test_annotating_an_op_without_attrs_reaches_no_other(self):
        timeline = Timeline()
        a = timeline.submit(label="a", kind="kernel", resource="compute", duration=1.0)
        timeline.submit(label="b", kind="kernel", resource="compute", duration=1.0)
        with pytest.raises(TypeError):
            a.attrs["hb_writes"] = ["x"]  # type: ignore[index]
        timeline.annotate(a, hb_writes=["x"])
        a_now, b_now = timeline.ops
        assert a_now.attrs == {"hb_writes": ["x"]} and b_now.attrs == {}
        # a view is a snapshot: the record submit returned keeps its attrs
        assert a.attrs == {}

    def test_op_keeps_its_own_copy_of_the_callers_attrs(self):
        attrs = {"bytes": 4}
        timeline = Timeline()
        op = timeline.submit(
            label="a", kind="h2d", resource="pcie_h2d", duration=1.0, attrs=attrs
        )
        attrs["bytes"] = 8
        attrs["extra"] = True
        assert op.attrs == {"bytes": 4} == timeline.ops[0].attrs
        timeline.annotate(op, hb_reads=["y"])
        assert timeline.ops[0].attrs == {"bytes": 4, "hb_reads": ["y"]}
        assert attrs == {"bytes": 8, "extra": True}

    def test_annotate_rejects_an_op_of_another_timeline(self):
        timeline, other = Timeline(), Timeline()
        timeline.submit(label="a", kind="cpu", resource="cpu", duration=1.0)
        stranger = other.submit(label="b", kind="cpu", resource="cpu", duration=1.0)
        with pytest.raises(ValueError, match="not on this timeline"):
            timeline.annotate(stranger, stage="slice")
        assert timeline.ops[0].attrs == {} and other.ops[0].attrs == {}


# -- kernel chains ------------------------------------------------------------

chains = st.fixed_dictionaries(
    {
        "resource": st.sampled_from(ALL_RESOURCES),
        "stream": st.sampled_from(STREAMS),
        "kind": st.sampled_from(KINDS),
        "durations": st.lists(durations, max_size=6),
        "deps": st.lists(st.integers(min_value=0, max_value=10_000), max_size=3),
    }
)
steps = st.one_of(
    submits.map(lambda step: ("submit", step)),
    chains.map(lambda step: ("chain", step)),
    st.just(("reset", None)),
)


def deps_of(ops: Sequence[TimelineOp], index: int) -> List[int]:
    """Dep edges of ``ops[index]`` as positions in ``ops`` (uids differ per run)."""
    position = {op.uid: i for i, op in enumerate(ops)}
    return [position[uid] for uid in ops[index].deps]


def stat_hexes(timeline: Timeline) -> List[object]:
    busy = [
        timeline.busy_time(subset).hex()
        for size in range(len(ALL_RESOURCES) + 1)
        for subset in combinations(ALL_RESOURCES, size)
    ]
    kinds = [(kind, seconds.hex()) for kind, seconds in timeline.kind_seconds().items()]
    return [timeline.makespan().hex(), kinds, busy]


class TestChainsEqualPerOpSubmits:
    @settings(max_examples=80, deadline=None)
    @given(script=st.lists(steps, max_size=30))
    def test_interleaved_chains_match_a_per_op_twin(self, script):
        chained, twin = Timeline(), Timeline()
        placed: List[TimelineOp] = []  # every op of ``chained``, across resets
        twin_placed: List[TimelineOp] = []
        current: List[TimelineOp] = []
        for index, (action, step) in enumerate(script):
            if action == "reset":
                assert_matches_rescan(chained, current)
                chained.reset()
                twin.reset()
                current = []
                continue
            if action == "submit":
                drive(chained, [step], placed)
                drive(twin, [step], twin_placed)
                current.append(placed[-1])
                continue
            positions = [i % len(placed) for i in step["deps"]] if placed else []
            labels = [f"c{index}[{k}]" for k in range(len(step["durations"]))]
            common = dict(kind=step["kind"], resource=step["resource"], stream=step["stream"])
            ops = chained.submit_chain(
                labels=labels,
                durations=step["durations"],
                depends_on=[placed[i] for i in positions],
                **common,
            )
            deps = [twin_placed[i] for i in positions]
            for label, duration in zip(labels, step["durations"]):
                op = twin.submit(label=label, duration=duration, depends_on=deps, **common)
                twin_placed.append(op)
                deps = [op]
            assert all(b.uid == a.uid + 1 for a, b in zip(ops, ops[1:]))
            placed.extend(ops)
            current.extend(ops)
        assert_matches_rescan(chained, current)
        assert chained.ops == current
        assert stat_hexes(chained) == stat_hexes(twin)
        assert len(placed) == len(twin_placed)
        assert [op.uid for op in placed] == sorted(op.uid for op in placed)
        for i, (op, ref) in enumerate(zip(placed, twin_placed)):
            assert (op.op_id, op.label, op.kind, op.resource, op.stream) == (
                ref.op_id, ref.label, ref.kind, ref.resource, ref.stream
            )
            assert (op.start.hex(), op.end.hex()) == (ref.start.hex(), ref.end.hex())
            assert deps_of(placed, i) == deps_of(twin_placed, i)
            assert op.attrs == ref.attrs == {}

    def test_a_rejected_chain_changes_nothing(self):
        timeline = Timeline()
        first = timeline.submit(label="a", kind="kernel", resource="compute", duration=1.0)
        before = (timeline.ops, stat_hexes(timeline), timeline.resource_free_at("compute"))
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="duration must be finite"):
                timeline.submit_chain(
                    labels=["ok", "bad"],
                    kind="kernel",
                    resource="compute",
                    durations=[2.0, bad],
                    depends_on=[first],
                )
        with pytest.raises(ValueError, match="one duration"):
            timeline.submit_chain(labels=["a"], kind="kernel", resource="compute", durations=[])
        with pytest.raises(ValueError, match="one duration"):
            timeline.submit_chain(
                labels=["a"], kind="kernel", resource="compute", durations=[1.0], attrs=[]
            )
        assert (timeline.ops, stat_hexes(timeline), timeline.resource_free_at("compute")) == before
        assert timeline.stream_free_at("default") == 1.0
        assert timeline.submit(label="b", kind="cpu", resource="cpu", duration=1.0).op_id == 1

    def test_an_empty_chain_places_nothing(self):
        timeline = Timeline()
        assert timeline.submit_chain(labels=[], kind="kernel", resource="compute", durations=[]) == []
        assert timeline.kind_seconds() == {} and timeline.makespan() == 0.0

    def test_a_chain_adds_at_most_one_busy_component(self):
        timeline = Timeline()
        timeline.submit(label="a", kind="kernel", resource="compute", duration=1.0)
        timeline.submit_chain(
            labels=[f"k{i}" for i in range(100)],
            kind="kernel",
            resource="compute",
            durations=[0.0, 0.5] * 50,
        )
        gap = timeline.submit(label="g", kind="cpu", resource="cpu", duration=99.0, stream="cpu")
        timeline.submit_chain(
            labels=["x", "y"], kind="kernel", resource="compute", durations=[1.0, 2.0],
            depends_on=[gap],
        )
        assert timeline._busy["compute"] == [[0.0, 26.0], [99.0, 102.0]]
        assert timeline.busy_time(["compute"]) == 29.0
        assert timeline.busy_time(["compute", "cpu"]) == 102.0

    def test_chained_dicts_are_copied_and_read_only_mappings_shared(self):
        shared = {"category": "update"}
        template = MappingProxyType({"category": "rnn"})
        timeline = Timeline()
        ops = timeline.submit_chain(
            labels=["a", "b", "c", "d"],
            kind="kernel",
            resource="compute",
            durations=[1.0, 1.0, 1.0, 1.0],
            attrs=[shared, shared, None, template],
        )
        shared["category"] = "rnn"
        assert ops[0].attrs == ops[1].attrs == {"category": "update"}
        assert ops[2].attrs == {} and ops[3].attrs is template
        timeline.annotate(ops[0], bubble_from="stage0")
        timeline.annotate(ops[3], bubble_from="stage1")
        assert [op.attrs for op in timeline.ops] == [
            {"category": "update", "bubble_from": "stage0"},
            {"category": "update"},
            {},
            {"category": "rnn", "bubble_from": "stage1"},
        ]
        assert template == {"category": "rnn"}


# -- device-level chains ------------------------------------------------------

costs_st = st.lists(
    st.fixed_dictionaries(
        {
            "name": st.sampled_from(["spmm", "gemm", "lstm"]),
            "category": st.sampled_from(CATEGORIES),
            "flops": st.floats(min_value=0.0, max_value=1e12),
            "mem_transactions": st.floats(min_value=0.0, max_value=1e9),
            "active_thread_ratio": st.floats(min_value=0.01, max_value=1.0),
            "imbalance": st.floats(min_value=1.0, max_value=4.0),
            "launches": st.integers(min_value=0, max_value=5),
        }
    ).map(lambda fields: KernelCost(**fields)),
    max_size=8,
)

STAT_FIELDS = (
    "seconds",
    "flops",
    "mem_requests",
    "mem_transactions",
    "balanced_seconds",
    "weighted_thread_ratio",
)


def reference_launch(device, costs, *, label, depends_on=None):
    """The per-kernel launch loop: one ``submit`` and one stats update per cost."""
    spec = device.spec
    per_launch_us = (
        spec.cudagraph_launch_overhead_us
        if device.use_cuda_graph
        else spec.kernel_launch_overhead_us
    )
    ops, deps = [], depends_on
    for i, cost in enumerate(costs):
        balanced = cost.balanced_seconds(spec)
        exec_seconds = balanced * cost.imbalance
        op = device.timeline.submit(
            label=f"{label}[{i}]:{cost.name}",
            kind="kernel",
            resource="compute",
            duration=exec_seconds + cost.launches * per_launch_us * 1e-6,
            stream="compute",
            depends_on=deps,
            attrs={"category": cost.category, "launches": cost.launches},
        )
        stats = device.kernel_stats[cost.category]
        stats.seconds += exec_seconds
        stats.launches += cost.launches
        stats.flops += cost.flops
        stats.mem_requests += cost.mem_requests
        stats.mem_transactions += cost.mem_transactions
        stats.balanced_seconds += balanced
        stats.weighted_thread_ratio += cost.active_thread_ratio * max(exec_seconds, 1e-12)
        deps = [op]
        ops.append(op)
    return ops


def chain_deps(ops: Sequence[TimelineOp], first: TimelineOp) -> List[Tuple[int, ...]]:
    """The deps a chain after ``first`` carries: ``first``, then each predecessor."""
    return [(first.uid,)] + [(op.uid,) for op in ops[:-1]] if ops else []


def device_hexes(device: SimulatedGPU) -> List[object]:
    stats = [
        (cat, s.launches, [getattr(s, name).hex() for name in STAT_FIELDS])
        for cat, s in device.kernel_stats.items()
    ]
    ops = [
        (op.op_id, op.label, op.start.hex(), op.end.hex(), op.attrs)
        for op in device.timeline.ops
    ]
    return [stats, ops, stat_hexes(device.timeline)]


class TestDeviceKernelChains:
    @settings(max_examples=40, deadline=None)
    @given(
        batches=st.lists(costs_st, max_size=4),
        device_graph=st.booleans(),
    )
    def test_launch_kernels_matches_a_per_cost_reference(self, batches, device_graph):
        device = SimulatedGPU(use_cuda_graph=device_graph)
        reference = SimulatedGPU(use_cuda_graph=device_graph)
        for index, costs in enumerate(batches):
            copy = device.transfer_h2d(1e6 * (index + 1))
            ref_copy = reference.transfer_h2d(1e6 * (index + 1))
            ops = device.launch_kernels(costs, label=f"b{index}", depends_on=[copy])
            ref_ops = reference_launch(
                reference, costs, label=f"b{index}", depends_on=[ref_copy]
            )
            assert [op.deps for op in ops] == chain_deps(ops, copy)
            assert [op.deps for op in ref_ops] == chain_deps(ref_ops, ref_copy)
        assert device_hexes(device) == device_hexes(reference)

    @pytest.mark.parametrize("graph_mode", [False, True])
    def test_launch_kernel_is_the_one_cost_chain(self, graph_mode):
        cost = KernelCost(name="k", category="update", flops=3e9, active_thread_ratio=0.3)
        device = SimulatedGPU(use_cuda_graph=graph_mode)
        reference = SimulatedGPU(use_cuda_graph=graph_mode)
        op = device.launch_kernel(cost)
        ref = reference_launch(reference, [cost], label="_")[0]
        assert (op.label, op.start.hex(), op.end.hex()) == ("k", ref.start.hex(), ref.end.hex())
        assert device_hexes(device)[0] == device_hexes(reference)[0]

    def test_annotating_a_launched_op_reaches_no_other(self):
        device = SimulatedGPU()
        ops = device.launch_kernels([KernelCost(name=f"k{i}", flops=1e9) for i in range(3)])
        device.timeline.annotate(ops[0], bubble_from="stage1")
        first, *rest = device.timeline.ops
        assert first.attrs == {"category": "other", "launches": 1, "bubble_from": "stage1"}
        assert all(op.attrs == {"category": "other", "launches": 1} for op in rest)

    def test_a_rejected_chain_leaves_the_device_untouched(self):
        device = SimulatedGPU()
        device.transfer_h2d(1e6)
        device.launch_kernels([KernelCost(name="warm", category="update", flops=1e9)])
        before = device_hexes(device)
        with pytest.raises(ValueError, match="duration must be finite"):
            device.launch_kernels(
                [KernelCost(name="ok", flops=1e9), KernelCost(name="bad", mem_transactions=1.7e308)]
            )
        assert device_hexes(device) == before
        assert device.kernel_stats["other"].launches == 0
