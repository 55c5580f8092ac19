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

Every other simulated op pays for one :meth:`~Timeline.submit`, so the
record it returns is cheap to build: :class:`TimelineOp` is a ``NamedTuple``
that both submit paths build with ``tuple.__new__``, skipping its
Python-level ``__new__``.  On a 2-vCPU Xeon VM a whole ``submit`` (one
dependency, one attrs key) takes about 2.8 µs, against 3.0 µs through that
``__new__`` (min of five 20k-op runs); the frozen dataclass the tuple
replaced cost more than twice as much.  The tuple is just as immutable
(assigning a field raises ``AttributeError``) and just as unhashable
(``attrs`` is a dict).  Each submitted op owns a copy of the caller's
``attrs``: schedulers annotate an op after submitting it (the sanitizer's
``hb_reads``/``hb_writes`` keys), and that must not leak into other ops or
back into the caller's dict.  Non-finite ``duration`` and ``not_before``
are rejected, since a NaN would silently break the per-resource FIFO
invariant and an infinity would block a resource forever.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: canonical resources
RESOURCE_COMPUTE = "compute"
RESOURCE_PCIE_H2D = "pcie_h2d"
RESOURCE_PCIE_D2H = "pcie_d2h"
RESOURCE_CPU = "cpu"
RESOURCES = (RESOURCE_COMPUTE, RESOURCE_PCIE_H2D, RESOURCE_PCIE_D2H, RESOURCE_CPU)

#: process-wide op identity: ``op_id`` restarts per timeline, but dependency
#: edges cross timelines (p2p recv ops, cross-device gates), so the
#: happens-before analyzer needs an identifier that is unique across every
#: timeline of a run
_UID_COUNTER = itertools.count()
#: ``_new_op(TimelineOp, fields)`` skips the ``NamedTuple``'s Python ``__new__``
_new_op = tuple.__new__


class TimelineOp(NamedTuple):
    """One scheduled operation."""

    op_id: int
    label: str
    kind: str
    resource: str
    stream: str
    start: float
    end: float
    #: :meth:`Timeline.submit` always passes the op its own dict; the default
    #: (only used by direct construction) is read-only, so it cannot leak
    #: writes from one op into another
    attrs: Dict[str, object] = MappingProxyType({})
    #: process-unique identity (dep edges may point at other timelines)
    uid: int = -1
    #: uids of the ops this one was submitted ``depends_on``
    deps: Tuple[int, ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """Collects operations and exposes busy-time / utilization statistics."""

    def __init__(self) -> None:
        self._ops: List[TimelineOp] = []
        self._resource_free: Dict[str, float] = {}
        self._stream_free: Dict[str, float] = {}
        self._next_id = 0
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
        attrs: Optional[Dict[str, object]] = None,
        not_before: float = 0.0,
    ) -> TimelineOp:
        """Schedule an operation and return its placed record.

        ``not_before`` is an earliest-start constraint in timeline seconds;
        the serving engine uses it to model work arriving while the device is
        idle (a request cannot be processed before it arrives).
        """
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
        op = _new_op(TimelineOp, (
            self._next_id, label, kind, resource, stream, start, end,
            dict(attrs) if attrs else {},
            next(_UID_COUNTER),
            tuple([op.uid for op in depends_on]) if depends_on else (),
        ))
        self._next_id += 1
        if end > self._makespan:
            self._makespan = end
        self._ops.append(op)
        # ``end - start`` (not ``duration``): the same float the op reports
        self._kind_seconds[kind] = self._kind_seconds.get(kind, 0.0) + (end - start)
        self._resource_free[resource] = end
        self._stream_free[stream] = end
        if end > start:
            self._extend_busy(resource, start, end)
        return op

    def submit_chain(
        self,
        *,
        labels: Sequence[str],
        kind: str,
        resource: str,
        durations: Sequence[float],
        attrs: Optional[Sequence[Optional[Dict[str, object]]]] = None,
        stream: str = "default",
        depends_on: Optional[Sequence[TimelineOp]] = None,
    ) -> List[TimelineOp]:
        """Schedule ops back to back on one stream and resource.

        The first op is placed as :meth:`submit` places it; every later op
        starts at its predecessor's end and depends on it alone.  That is
        where ``submit(depends_on=[prev])`` puts it, since the stream and
        the resource both free up at that end, so the chain equals one such
        submit per op, bit for bit.  ``attrs`` (one dict or ``None`` per op)
        is copied per op, as :meth:`submit` does.  Every duration is checked
        before anything is placed, so a rejected chain changes nothing.
        """
        count = len(labels)
        if len(durations) != count or (attrs is not None and len(attrs) != count):
            raise ValueError("submit_chain needs one duration (and attrs entry, if given) per label")
        for duration in durations:
            if not 0.0 <= duration < math.inf:
                raise ValueError(f"duration must be finite and >= 0, got {duration}")
        if not count:
            return []
        ready = 0.0
        if depends_on:
            ready = max(ready, max([op.end for op in depends_on]))
        ready = max(ready, self._stream_free.get(stream, 0.0))
        chain_start = start = end = max(ready, self._resource_free.get(resource, 0.0))
        deps = tuple([op.uid for op in depends_on]) if depends_on else ()
        total = self._kind_seconds.get(kind, 0.0)
        op_id = self._next_id
        ops: List[TimelineOp] = []
        for label, duration, op_attrs in zip(
            labels, durations, attrs if attrs is not None else itertools.repeat(None)
        ):
            end = start + duration
            op = _new_op(TimelineOp, (
                op_id, label, kind, resource, stream, start, end,
                dict(op_attrs) if op_attrs else {},
                next(_UID_COUNTER),
                deps,
            ))
            ops.append(op)
            total += end - start
            deps = (op.uid,)
            op_id += 1
            start = end
        self._next_id = op_id
        self._ops.extend(ops)
        self._kind_seconds[kind] = total
        if end > self._makespan:
            self._makespan = end
        self._resource_free[resource] = end
        self._stream_free[stream] = end
        # Ops of zero length do not move the clock, so the chain's positive-
        # length ops form one contiguous run from its start to its end.
        if end > chain_start:
            self._extend_busy(resource, chain_start, end)
        return ops

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
    def ops(self) -> List[TimelineOp]:
        return list(self._ops)

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
        self._ops.clear()
        self._resource_free.clear()
        self._stream_free.clear()
        self._next_id = 0
        self._makespan = 0.0
        self._kind_seconds.clear()
        self._busy.clear()
