"""The timeline's column store: ops live in columns, off the GC heap.

:class:`~repro.gpu.timeline.Timeline` keeps no Python object per op.  A
chain appends to arrays and to lists of shared objects, and a
:class:`~repro.gpu.timeline.TimelineOp` is a view built on demand.  These
tests pin four things:

- the count of GC-tracked objects grows with chains and submits, not with ops;
- a view equals the record ``submit`` returned, bit for bit;
- a chain op's attrs is its cost's shared read-only template, and only
  ``annotate`` gives one op attrs of its own;
- ``launch_kernels`` still returns one op per cost.
"""

from __future__ import annotations

import gc
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import KernelCost, SimulatedGPU, Timeline, TimelineOp, op_records


def fields_hex(op: TimelineOp):
    """Every field of ``op``; floats as ``float.hex``, attrs as a plain dict."""
    return (
        op.op_id, op.label, op.kind, op.resource, op.stream,
        float(op.start).hex(), float(op.end).hex(), dict(op.attrs), op.uid, op.deps,
    )


def reference_records(timelines):
    """The canonical op record built from views, one op at a time."""
    where = {op.uid: (index, op.op_id) for index, ops in enumerate(timelines) for op in ops}
    return [
        (
            index, op.label, op.kind, op.resource, op.stream,
            float(op.start).hex(), float(op.end).hex(),
            tuple(where[uid] for uid in op.deps),
        )
        for index, ops in enumerate(timelines)
        for op in ops
    ]


class TestOffTheGCHeap:
    def test_tracked_objects_grow_with_chains_and_submits_not_ops(self):
        timeline = Timeline()
        template = MappingProxyType({"category": "update", "launches": 1})
        names = [f"k{i}" for i in range(20)]
        durations = [1e-6 * (i + 1) for i in range(20)]
        chains = submits = 1000
        gc.collect()
        before = len(gc.get_objects())
        for i in range(chains):
            ops = timeline.submit_chain(
                labels=names,
                kind="kernel",
                resource="compute",
                durations=durations,
                attrs=[template] * len(names),
                stream="compute",
                prefix=f"fwd_t{i % 12}",
            )
            timeline.submit(
                label=f"h2d_p{i}",
                kind="h2d",
                resource="pcie_h2d",
                duration=1e-6,
                stream="copy",
                depends_on=ops[-1:],
                attrs={"bytes": 4096.0, "pinned": True},
            )
        del ops
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert len(timeline.ops) == chains * len(names) + submits
        assert grown < chains + submits


class TestViews:
    steps = st.lists(
        st.one_of(
            st.tuples(
                st.just("submit"),
                st.floats(min_value=0.0, max_value=1e-3),
                st.lists(st.integers(min_value=0, max_value=1000), max_size=3),
                st.booleans(),
                st.floats(min_value=0.0, max_value=1e-2),
            ),
            st.tuples(
                st.just("chain"),
                st.lists(st.floats(min_value=0.0, max_value=1e-3), max_size=5),
                st.lists(st.integers(min_value=0, max_value=1000), max_size=2),
                st.booleans(),
                st.sampled_from(["compute", "copy"]),
            ),
        ),
        max_size=25,
    )

    @settings(max_examples=60, deadline=None)
    @given(script=steps)
    def test_a_view_equals_the_record_submit_returned(self, script):
        timeline = Timeline()
        returned = []
        for index, (action, a, deps, flag, extra) in enumerate(script):
            depends_on = [returned[i % len(returned)] for i in deps] if returned else None
            if action == "submit":
                # a NumPy duration keeps its type in the returned record
                duration = np.float64(a) if flag else a
                returned.append(timeline.submit(
                    label=f"s{index}", kind="cpu", resource="cpu", duration=duration,
                    stream="cpu", depends_on=depends_on, not_before=extra,
                    attrs={"bytes": a} if flag else None,
                ))
            else:
                chain = timeline.submit_chain(
                    labels=[f"n{i}" for i in range(len(a))], kind="kernel",
                    resource="compute", durations=a, stream=extra,
                    depends_on=depends_on, prefix=f"c{index}" if flag else None,
                )
                returned.extend(chain)
        views = list(timeline.ops)
        assert [fields_hex(op) for op in views] == [fields_hex(op) for op in returned]
        assert [fields_hex(timeline.ops[op.op_id]) for op in returned] == [
            fields_hex(op) for op in returned
        ]

    def test_op_records_project_the_columns(self):
        devices = [SimulatedGPU(), SimulatedGPU()]
        first = devices[0].transfer_h2d(1e6, label="h2d_p0")
        ops = devices[0].launch_kernels(
            [KernelCost(name="a", flops=1e9), KernelCost(name="b", flops=2e9)],
            label="fwd", depends_on=[first],
        )
        devices[1].host_op(1e-4, label="recv", depends_on=ops[-1:])
        devices[1].launch_kernels([KernelCost(name="c")], label="bwd")
        timelines = [device.timeline.ops for device in devices]
        records = op_records(timelines)
        assert records == reference_records(timelines)
        assert [record[1] for record in records[:3]] == ["h2d_p0", "fwd[0]:a", "fwd[1]:b"]
        # a chain head depends on what it was given, a later chain op on its predecessor
        assert [record[7] for record in records[1:4]] == [((0, 0),), ((0, 1),), ((0, 2),)]

    def test_ops_taken_before_a_reset_keep_theirs(self):
        timeline = Timeline()
        op = timeline.submit(label="a", kind="cpu", resource="cpu", duration=1.0)
        before = timeline.ops
        timeline.reset()
        timeline.submit(label="b", kind="cpu", resource="cpu", duration=2.0)
        assert before == [op] and [o.label for o in timeline.ops] == ["b"]
        assert timeline.ops[0].op_id == 0


class TestChainAttrs:
    def test_chain_attrs_are_the_shared_read_only_template(self, gpu_spec):
        device = SimulatedGPU(gpu_spec)
        cost = KernelCost(name="k", flops=1e9)
        (terms,) = device.launch_terms([cost])
        ops = device.launch_kernels([cost] * 3, label="fwd")
        assert all(op.attrs is terms.attrs for op in ops)
        with pytest.raises(TypeError):
            ops[1].attrs["bubble_from"] = 0.0  # type: ignore[index]
        with pytest.raises(TypeError):
            terms.attrs["bubble_from"] = 0.0  # type: ignore[index]

    def test_annotate_changes_neither_siblings_nor_the_template(self, gpu_spec):
        device = SimulatedGPU(gpu_spec)
        cost = KernelCost(name="k", flops=1e9)
        (terms,) = device.launch_terms([cost])
        template = dict(terms.attrs)
        ops = device.launch_kernels([cost] * 3, label="fwd")
        device.timeline.annotate(ops[1], bubble_from=0.25)
        first, middle, last = device.timeline.ops
        assert middle.attrs == {**template, "bubble_from": 0.25}
        assert first.attrs is terms.attrs and last.attrs is terms.attrs
        assert dict(terms.attrs) == template == {"category": "other", "launches": 1}
        assert device.launch_kernels([cost], label="fwd")[0].attrs is terms.attrs
        # a second annotation adds to the op's own attrs
        device.timeline.annotate(middle, stage="slice")
        assert device.timeline.ops[1].attrs == {**template, "bubble_from": 0.25, "stage": "slice"}


class TestLaunchKernels:
    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_one_op_per_cost(self, count):
        device = SimulatedGPU()
        costs = [KernelCost(name=f"k{i}", flops=1e9 * (i + 1)) for i in range(count)]
        ops = device.launch_kernels(costs, label="fwd")
        assert len(ops) == count == len(list(ops)) == len(device.timeline.ops)
        assert bool(ops) == bool(count)
        assert [op.label for op in ops] == [f"fwd[{i}]:k{i}" for i in range(count)]
        assert ops[-1:] == list(ops)[-1:]
        if count:
            assert ops[0] == ops[-count] and ops[-1].op_id == count - 1
        with pytest.raises(IndexError):
            ops[count]
