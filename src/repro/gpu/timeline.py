"""Event timeline of the simulated device.

The timeline is a resource-constrained list scheduler: every operation is
bound to one *resource* (the GPU compute engine, the PCIe copy engine, or the
host CPU), belongs to one *stream* (a FIFO ordering constraint, mirroring
CUDA streams) and may depend on previously submitted operations.  An
operation starts as soon as its resource is free, all ops before it in its
stream have finished and all its dependencies have finished; this is enough
to reproduce the overlap behaviour the paper's pipeline (Fig. 8) relies on —
asynchronous transfers hiding behind kernels, partition ``k+1`` transfers
overlapping partition ``k`` compute, CPU-side preparation overlapping both.

Invariant: each resource is FIFO and never overlaps itself — an op starts no
earlier than the previous op on its resource ended — so the ops of one
resource, in submit order, are already sorted by ``(start, end)``.

Cost model of the bookkeeping: :meth:`Timeline.submit` keeps the makespan
and the per-kind totals as running values, so :meth:`~Timeline.makespan` is
O(1) and :meth:`~Timeline.kind_seconds` is O(kinds), however many ops came
before.  It also keeps, per resource, the merged ``[start, end]`` components
of that resource's positive-length ops.  By the invariant above a new op
either extends the last component (it starts where that one ends) or opens a
new one, which is O(1) per op.  :meth:`~Timeline.busy_time` (and the
utilization figures built on it) merges only those components, so it costs
O(components) for one resource, plus a sort of the components when several
resources are asked for.  A pipeline timeline of ~11k ops holds a few dozen
compute components.  The union of the components is the union of the ops,
so the merge sums the same differences in the same order as a merge over
the raw ops, bit for bit.

:meth:`Timeline.submit_chain` places a run of ops back to back on one stream
and resource in one call: each op starts where its predecessor ends, which
is exactly where ``submit(depends_on=[prev])`` would put it, and the chain
adds at most one busy component.  A snapshot group's kernels are one such
chain (:meth:`~repro.gpu.device.SimulatedGPU.launch_kernels`).

Storage: the ops are columns (:class:`OpColumns`), one entry per op, and
no Python object per op.  ``array('d')`` holds starts and ends and
``array('q')`` the uids; labels, kinds, resources and streams are lists of
shared ``str`` objects.  Dependencies are one flat uid array, and a chain
op's dependency on its predecessor is implicit.  The attrs column holds
one shared empty mapping, a read-only template shared by every launch of
one kernel cost (:class:`~repro.gpu.kernel_cost.LaunchTerms`), or a dict
the op owns.  A
chain keeps its label prefix and its ops' names, so ``f"{prefix}[{i}]:{name}"``
is formatted only when a view of that op is built.  CPython's cyclic
garbage collector tracks none of the arrays' entries, strings, or dicts of
plain values, so the objects it scans grow with the ops that own a dict
holding a container (an ``hb_reads`` list, say), not with the timeline.

:class:`TimelineOp` is a ``NamedTuple`` view of one row, built on demand:
:meth:`Timeline.submit` returns one, :meth:`Timeline.submit_chain` returns
a lazy :class:`TimelineOps` sequence that builds one per index, and
:attr:`Timeline.ops` is the same sequence over every op.  A view is a
snapshot: its ``attrs`` is read-only, and facts learnt after placement go
through :meth:`Timeline.annotate`, which gives the op a dict of its own and
leaves other ops and the shared templates alone.  Readers that scan a whole
timeline (telemetry's projection, the sanitizer's analyzers) read the
columns, and build views only for the rows they report.  Non-finite
``duration`` and ``not_before`` are rejected, since a NaN would silently
break the per-resource FIFO invariant and an infinity would block a
resource forever.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from array import array
from bisect import bisect_left
from collections.abc import Sequence as SequenceABC
from types import MappingProxyType
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

#: canonical resources
RESOURCE_COMPUTE = "compute"
RESOURCE_PCIE_H2D = "pcie_h2d"
RESOURCE_PCIE_D2H = "pcie_d2h"
RESOURCE_CPU = "cpu"
RESOURCES = (RESOURCE_COMPUTE, RESOURCE_PCIE_H2D, RESOURCE_PCIE_D2H, RESOURCE_CPU)

#: process-wide op identity: ``op_id`` restarts per timeline, but dependency
#: edges cross timelines (p2p recv ops, cross-device gates), so the
#: happens-before analyzer needs an identifier that is unique across every
#: timeline of a run; a chain takes a run of consecutive uids
_next_uid = 0
#: ``_new_op(TimelineOp, fields)`` skips the ``NamedTuple``'s Python ``__new__``
_new_op = tuple.__new__
#: the attrs of an op that has none
_NO_ATTRS: Mapping[str, object] = MappingProxyType({})


class TimelineOp(NamedTuple):
    """One scheduled operation: a read-only view of one timeline row."""

    op_id: int
    label: str
    kind: str
    resource: str
    stream: str
    start: float
    end: float
    attrs: Mapping[str, object]
    #: process-unique identity (dep edges may point at other timelines)
    uid: int
    #: uids of the ops this one was submitted ``depends_on``
    deps: Tuple[int, ...]

    @property
    def duration(self) -> float:
        return self.end - self.start


class OpColumns:
    """The ops of one timeline, one column per field; row ``i`` is op ``i``.

    The columns are public for readers that scan a whole timeline and must
    not be changed; only :class:`Timeline` appends to them.
    """

    __slots__ = (
        "start", "end", "uid", "pos", "dep_end", "dep_uids",
        "name", "prefix", "kind", "resource", "stream", "_attrs",
    )

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.uid = array("q")
        #: index of the op in its chain (0 for a submitted op or a chain head)
        self.pos = array("q")
        #: ``dep_uids[dep_end[i - 1]:dep_end[i]]`` are op ``i``'s explicit
        #: deps; an op with ``pos > 0`` depends on op ``i - 1`` alone
        self.dep_end = array("q")
        self.dep_uids = array("q")
        #: the label, or a chain op's name when its ``prefix`` is not None
        self.name: List[str] = []
        self.prefix: List[Optional[str]] = []
        self.kind: List[str] = []
        self.resource: List[str] = []
        self.stream: List[str] = []
        #: a shared read-only mapping (no attrs, or a launch template) or a
        #: dict the op owns
        self._attrs: List[Mapping[str, object]] = []

    def __len__(self) -> int:
        return len(self.uid)

    def label(self, row: int) -> str:
        prefix = self.prefix[row]
        if prefix is None:
            return self.name[row]
        return f"{prefix}[{self.pos[row]}]:{self.name[row]}"

    def attrs(self, row: int) -> Mapping[str, object]:
        """Op ``row``'s attrs, read-only (no copy is made)."""
        attrs = self._attrs[row]
        return MappingProxyType(attrs) if type(attrs) is dict else attrs

    def deps(self, row: int) -> Tuple[int, ...]:
        if self.pos[row]:
            return (self.uid[row - 1],)
        lo = self.dep_end[row - 1] if row else 0
        return tuple(self.dep_uids[lo : self.dep_end[row]])

    def dep_edges(self) -> Iterator[Tuple[int, int]]:
        """``(dep uid, uid)`` of every dependency edge: the explicit ones in
        row order, then every chain op's edge from its predecessor."""
        uids, dep_uids = self.uid, self.dep_uids
        explicit = []
        lo = 0
        for row, hi in enumerate(self.dep_end):
            if hi > lo:
                explicit.extend(zip(dep_uids[lo:hi], itertools.repeat(uids[row])))
                lo = hi
        linked = self.pos[1:]  # entry ``r`` is nonzero when row ``r + 1`` follows row ``r``
        return itertools.chain(
            explicit, zip(itertools.compress(uids, linked), itertools.compress(uids[1:], linked))
        )

    def rows_with(self, *keys: str) -> List[int]:
        """Rows whose attrs hold any of ``keys``, in row order; builds no view."""
        disjoint = map(frozenset(keys).isdisjoint, self._attrs)
        return list(itertools.compress(itertools.count(), map(operator.not_, disjoint)))

    def row_of(self, uid: int) -> Optional[int]:
        """The row of the op with ``uid`` (uids grow with rows), or ``None``."""
        row = bisect_left(self.uid, uid)
        return row if row < len(self.uid) and self.uid[row] == uid else None

    def view(self, row: int) -> TimelineOp:
        return _new_op(TimelineOp, (
            row, self.label(row), self.kind[row], self.resource[row], self.stream[row],
            self.start[row], self.end[row], self.attrs(row), self.uid[row], self.deps(row),
        ))


class TimelineOps(SequenceABC):
    """A lazy, read-only sequence of views of a run of timeline rows.

    Indexing builds one :class:`TimelineOp`; a slice is a list of views.  It
    equals any list, tuple or :class:`TimelineOps` holding equal ops, so
    ``timeline.ops == []`` holds on an empty timeline.
    """

    __slots__ = ("columns", "_lo", "_hi")

    def __init__(self, columns: OpColumns, lo: int, hi: int) -> None:
        self.columns = columns
        self._lo = lo
        self._hi = hi

    @property
    def rows(self) -> range:
        return range(self._lo, self._hi)

    def __len__(self) -> int:
        return self._hi - self._lo

    def __getitem__(self, index):
        rows = self.rows[index]
        if isinstance(index, slice):
            return [self.columns.view(row) for row in rows]
        return self.columns.view(rows)

    def __iter__(self) -> Iterator[TimelineOp]:
        return map(self.columns.view, self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, TimelineOps)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TimelineOps({list(self)!r})"


class Timeline:
    """Collects operations and exposes busy-time / utilization statistics."""

    def __init__(self) -> None:
        self._columns = OpColumns()
        self._resource_free: Dict[str, float] = {}
        self._stream_free: Dict[str, float] = {}
        #: running totals (see the module docstring): the end of the latest-
        #: ending op, and ``end - start`` summed per kind in submit order
        self._makespan = 0.0
        self._kind_seconds: Dict[str, float] = {}
        #: per resource, the merged ``[start, end]`` components of its
        #: positive-length ops, in time order (see the module docstring)
        self._busy: Dict[str, List[List[float]]] = {}

    # -- submission ---------------------------------------------------------
    def submit(
        self,
        *,
        label: str,
        kind: str,
        resource: str,
        duration: float,
        stream: str = "default",
        depends_on: Optional[Sequence[TimelineOp]] = None,
        attrs: Optional[Mapping[str, object]] = None,
        not_before: float = 0.0,
    ) -> TimelineOp:
        """Schedule an operation and return its placed record.

        ``not_before`` is an earliest-start constraint in timeline seconds;
        the serving engine uses it to model work arriving while the device is
        idle (a request cannot be processed before it arrives).  The op owns
        a copy of ``attrs``.
        """
        global _next_uid
        # chained comparisons are False for NaN, so each test rejects it too
        if not 0.0 <= duration < math.inf:
            raise ValueError(f"duration must be finite and >= 0, got {duration}")
        if not -math.inf < not_before < math.inf:
            raise ValueError(f"not_before must be finite, got {not_before}")
        ready = max(0.0, not_before)
        if depends_on:
            ready = max(ready, max([op.end for op in depends_on]))
        ready = max(ready, self._stream_free.get(stream, 0.0))
        start = max(ready, self._resource_free.get(resource, 0.0))
        end = start + duration
        uid = _next_uid
        _next_uid = uid + 1
        label = sys.intern(label)
        deps = tuple([op.uid for op in depends_on]) if depends_on else ()
        owned = dict(attrs) if attrs else None
        columns = self._columns
        row = len(columns.uid)
        columns.start.append(start)
        columns.end.append(end)
        columns.uid.append(uid)
        columns.pos.append(0)
        if deps:
            columns.dep_uids.extend(deps)
        columns.dep_end.append(len(columns.dep_uids))
        columns.name.append(label)
        columns.prefix.append(None)
        columns.kind.append(kind)
        columns.resource.append(resource)
        columns.stream.append(stream)
        columns._attrs.append(_NO_ATTRS if owned is None else owned)
        if end > self._makespan:
            self._makespan = end
        # ``end - start`` (not ``duration``): the same float the op reports
        self._kind_seconds[kind] = self._kind_seconds.get(kind, 0.0) + (end - start)
        self._resource_free[resource] = end
        self._stream_free[stream] = end
        if end > start:
            self._extend_busy(resource, start, end)
        return _new_op(TimelineOp, (
            row, label, kind, resource, stream, start, end,
            _NO_ATTRS if owned is None else MappingProxyType(owned), uid, deps,
        ))

    def submit_chain(
        self,
        *,
        labels: Sequence[str],
        kind: str,
        resource: str,
        durations: Sequence[float],
        attrs: Optional[Sequence[Optional[Mapping[str, object]]]] = None,
        stream: str = "default",
        depends_on: Optional[Sequence[TimelineOp]] = None,
        prefix: Optional[str] = None,
    ) -> TimelineOps:
        """Schedule ops back to back on one stream and resource.

        The first op is placed as :meth:`submit` places it; every later op
        starts at its predecessor's end and depends on it alone.  That is
        where ``submit(depends_on=[prev])`` puts it, since the stream and
        the resource both free up at that end, so the chain equals one such
        submit per op, bit for bit.  With ``prefix``, op ``i`` is labelled
        ``f"{prefix}[{i}]:{labels[i]}"`` (formatted only when a view is
        built); without it, ``labels[i]``.  An ``attrs`` entry that is a
        :class:`types.MappingProxyType` is a template shared as given (what
        it wraps must never change); any other mapping is copied per op, as
        :meth:`submit` does.  Every duration is checked before anything is
        placed, so a rejected chain changes nothing.
        """
        global _next_uid
        count = len(labels)
        if len(durations) != count or (attrs is not None and len(attrs) != count):
            raise ValueError("submit_chain needs one duration (and attrs entry, if given) per label")
        for duration in durations:
            if not 0.0 <= duration < math.inf:
                raise ValueError(f"duration must be finite and >= 0, got {duration}")
        columns = self._columns
        first_row = len(columns.uid)
        if not count:
            return TimelineOps(columns, first_row, first_row)
        ready = 0.0
        if depends_on:
            ready = max(ready, max([op.end for op in depends_on]))
        ready = max(ready, self._stream_free.get(stream, 0.0))
        chain_start = max(ready, self._resource_free.get(resource, 0.0))
        # op i spans bounds[i] .. bounds[i + 1]: each end is its start plus
        # its duration, the same addition ``submit`` makes
        bounds = array("d", itertools.accumulate(durations, initial=chain_start))
        starts, ends = bounds[:-1], bounds[1:]
        end = bounds[-1]
        first_uid = _next_uid
        _next_uid = first_uid + count
        columns.start.extend(starts)
        columns.end.extend(ends)
        columns.uid.extend(range(first_uid, first_uid + count))
        columns.pos.extend(range(count))
        if depends_on:
            columns.dep_uids.extend([op.uid for op in depends_on])
        columns.dep_end.extend(itertools.repeat(len(columns.dep_uids), count))
        columns.name.extend(labels)
        columns.prefix.extend(itertools.repeat(prefix and sys.intern(prefix), count))
        columns.kind.extend(itertools.repeat(kind, count))
        columns.resource.extend(itertools.repeat(resource, count))
        columns.stream.extend(itertools.repeat(stream, count))
        if attrs is None:
            columns._attrs.extend(itertools.repeat(_NO_ATTRS, count))
        else:
            columns._attrs.extend([
                a if type(a) is MappingProxyType else (dict(a) if a else _NO_ATTRS)
                for a in attrs
            ])
        # the per-kind total adds each op's ``end - start`` in order, as
        # ``count`` submits would
        self._kind_seconds[kind] = functools.reduce(
            operator.add, map(operator.sub, ends, starts), self._kind_seconds.get(kind, 0.0)
        )
        if end > self._makespan:
            self._makespan = end
        self._resource_free[resource] = end
        self._stream_free[stream] = end
        # Ops of zero length do not move the clock, so the chain's positive-
        # length ops form one contiguous run from its start to its end.
        if end > chain_start:
            self._extend_busy(resource, chain_start, end)
        return TimelineOps(columns, first_row, first_row + count)

    def annotate(self, op: TimelineOp, **facts: object) -> None:
        """Add ``facts`` to the attrs of ``op``, an op of this timeline.

        The op gets a dict of its own, so no other op and no shared template
        changes; views built before keep the attrs they were built with.
        """
        columns = self._columns
        row = op.op_id
        if not (0 <= row < len(columns.uid) and columns.uid[row] == op.uid):
            raise ValueError(f"op {op.label!r} (uid {op.uid}) is not on this timeline")
        owned = dict(columns._attrs[row])
        owned.update(facts)
        columns._attrs[row] = owned

    def _extend_busy(self, resource: str, start: float, end: float) -> None:
        """Add the busy interval ``[start, end]`` (``end > start``) on ``resource``."""
        components = self._busy.setdefault(resource, [])
        # FIFO: ``start`` is no earlier than the last component's end, so it
        # either touches that component (and ``end`` extends it) or opens a new one.
        if components and start <= components[-1][1]:
            components[-1][1] = end
        else:
            components.append([start, end])

    # -- queries -------------------------------------------------------------
    @property
    def ops(self) -> TimelineOps:
        """Every op placed so far (a lazy sequence of views)."""
        return TimelineOps(self._columns, 0, len(self._columns))

    @property
    def columns(self) -> OpColumns:
        """The op columns, for readers that scan the whole timeline."""
        return self._columns

    def resource_free_at(self, resource: str) -> float:
        """Earliest time a new op could start on ``resource``."""
        return self._resource_free.get(resource, 0.0)

    def stream_free_at(self, stream: str) -> float:
        """Earliest time a new op could start on ``stream`` (FIFO ordering)."""
        return self._stream_free.get(stream, 0.0)

    def makespan(self) -> float:
        """End time of the last scheduled operation."""
        return self._makespan

    def busy_time(self, resources: Iterable[str]) -> float:
        """Union length of busy intervals across the given resources."""
        per_resource = [self._busy[r] for r in set(resources) if self._busy.get(r)]
        if len(per_resource) == 1:
            intervals = per_resource[0]  # one resource: already sorted and disjoint
        else:
            intervals = sorted([c for components in per_resource for c in components])
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
        busy += cur_end - cur_start
        return busy

    def kind_seconds(self) -> Dict[str, float]:
        """Total duration per operation kind (a fresh dict per call)."""
        return dict(self._kind_seconds)

    def gpu_utilization(self) -> float:
        """Fraction of the makespan during which the GPU is busy.

        Mirrors ``nvidia-smi`` utilization as used for Table 2: time with any
        kernel *or* device copy engine active counts as busy.
        """
        total = self.makespan()
        if total == 0:
            return 0.0
        busy = self.busy_time([RESOURCE_COMPUTE, RESOURCE_PCIE_H2D, RESOURCE_PCIE_D2H])
        return min(1.0, busy / total)

    def sm_utilization(self) -> float:
        """Fraction of the makespan during which compute kernels execute.

        Mirrors the PyTorch-profiler SM utilization of Fig. 3 (copies do not
        count).
        """
        total = self.makespan()
        if total == 0:
            return 0.0
        return min(1.0, self.busy_time([RESOURCE_COMPUTE]) / total)

    def reset(self) -> None:
        """Drop every op; sequences taken from :attr:`ops` before keep theirs."""
        self._columns = OpColumns()
        self._resource_free.clear()
        self._stream_free.clear()
        self._makespan = 0.0
        self._kind_seconds.clear()
        self._busy.clear()


def op_records(timelines: Sequence[TimelineOps]) -> List[Tuple[object, ...]]:
    """The canonical record of every op of ``timelines``, read off the columns.

    Each entry is a timeline's :attr:`~Timeline.ops` (or a run of them).  A
    record is the entry's index, label, kind, resource, stream, ``float.hex``
    start and end, and deps as ``(entry index, op_id)``: everything simulated
    about an op except its process-unique uid.
    """
    where: Dict[int, Tuple[int, int]] = {}
    for index, ops in enumerate(timelines):
        uids = ops.columns.uid
        where.update((uids[row], (index, row)) for row in ops.rows)
    records: List[Tuple[object, ...]] = []
    for index, ops in enumerate(timelines):
        columns = ops.columns
        kinds, resources, streams = columns.kind, columns.resource, columns.stream
        starts, ends = columns.start, columns.end
        records.extend(
            (
                index,
                columns.label(row),
                kinds[row],
                resources[row],
                streams[row],
                starts[row].hex(),
                ends[row].hex(),
                tuple([where[uid] for uid in columns.deps(row)]),
            )
            for row in ops.rows
        )
    return records
