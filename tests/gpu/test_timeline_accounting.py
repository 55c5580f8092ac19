"""Exactness of the timeline's running totals against a brute-force rescan.

:class:`~repro.gpu.timeline.Timeline` keeps its makespan and per-kind totals
as it submits, and merges per-resource runs for busy time instead of sorting
every op.  Simulated time must not move by a single bit because of that, so
every statistic is compared with ``==`` against the straightforward rescan
below over random submit sequences.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_ops_submitted_without_attrs_do_not_share_a_dict(self):
        timeline = Timeline()
        a = timeline.submit(label="a", kind="kernel", resource="compute", duration=1.0)
        b = timeline.submit(label="b", kind="kernel", resource="compute", duration=1.0)
        a.attrs["hb_writes"] = ["x"]
        assert a.attrs is not b.attrs and b.attrs == {}

    def test_op_keeps_its_own_copy_of_the_callers_attrs(self):
        attrs = {"bytes": 4}
        op = Timeline().submit(
            label="a", kind="h2d", resource="pcie_h2d", duration=1.0, attrs=attrs
        )
        attrs["bytes"] = 8
        attrs["extra"] = True
        assert op.attrs == {"bytes": 4}
        op.attrs["hb_reads"] = ["y"]
        assert attrs == {"bytes": 8, "extra": True}
