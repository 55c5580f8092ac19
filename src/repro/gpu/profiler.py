"""Cost observer: turns autograd op events into kernel costs.

The DGNN models execute through :mod:`repro.tensor`, which emits an
:class:`~repro.tensor.function.OpEvent` for every forward/backward operation.
:class:`KernelCostCollector` listens to that stream, estimates a
:class:`~repro.gpu.kernel_cost.KernelCost` for each generic dense op
(matmuls, activations, reductions, data movement) and passes through the
pre-computed costs that the specialized aggregation/update kernels attach to
their events.  Trainers install the collector around a forward/backward pass
and then launch the drained costs on the simulated device with the right
stream dependencies.

Workload extrapolation
----------------------
Dataset analogues are generated at laptop scale but represent graphs that are
100–1000× larger (``DESIGN.md`` §2).  The collector therefore multiplies the
extensive quantities of every op whose leading dimension equals the snapshot
node count by ``scale``, so kernel and transfer times land in the regime the
paper measured while numerics stay cheap.  Ops that do not touch the node
dimension (e.g. EvolveGCN's weight-evolving GRU) are left unscaled.

Memoized generic costs
----------------------
A model emits the same few dozen op shapes over and over (a serving run
sees ~17.5k events but only ~36 distinct generic ops), so the collector
computes each generic cost once.  :func:`estimate_event_cost` reads only the
event's ``name``, ``phase``, ``input_shapes``, ``output_shapes`` and
``attrs["scope"]`` plus the spec, and the collector's extrapolation adds only
``num_nodes`` and ``scale``.  The memo is two-level: one dict per
``(spec, num_nodes, scale)`` context, shared by every collector built for it
and looked up once when the collector is built, keyed per event on the five
event fields.  An event therefore hashes a few short tuples, never the
15-field spec, and a hit returns the cost a fresh computation would build,
already scaled.  ``KernelCost`` is frozen, so one object is safely shared by
every event with that key.  Events carrying an explicit ``kernel_cost``
bypass the memo, and traced runs count one ``estimate_event_cost`` call per
distinct key and context rather than per event.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.gpu.kernel_cost import (
    CATEGORY_AGGREGATION,
    CATEGORY_ELEMENTWISE,
    CATEGORY_OTHER,
    CATEGORY_RNN,
    CATEGORY_UPDATE,
    KernelCost,
)
from repro.gpu.memory_model import contiguous_bytes_cost
from repro.gpu.spec import GPUSpec
from repro.tensor.function import OpEvent

#: ops that are pure metadata changes on the device (no kernel launched)
_FREE_OPS = {"reshape"}

#: transcendental activations cost a few flops per element
_TRANSCENDENTAL = {"sigmoid", "tanh"}

#: ops that move data without arithmetic
_COPY_OPS = {"transpose", "concat", "stack", "getitem"}


def _scope_to_category(scope: str) -> str:
    if scope == "update":
        return CATEGORY_UPDATE
    if scope == "rnn":
        return CATEGORY_RNN
    if scope == "aggregation":
        return CATEGORY_AGGREGATION
    return CATEGORY_OTHER


def _shape_size(shape: Tuple[int, ...]) -> int:
    return math.prod(shape)


def estimate_event_cost(event: OpEvent, spec: GPUSpec) -> Optional[KernelCost]:
    """Estimate the kernel cost of a generic dense op event.

    Returns ``None`` for events that launch no device kernel.  Events that
    carry an explicit ``kernel_cost`` attribute are returned as-is (with the
    backward pass of fused ops handled by the producing kernel).
    """
    explicit = event.attrs.get("kernel_cost")
    if explicit is not None:
        return explicit
    if event.name in _FREE_OPS:
        return None

    scope = str(event.attrs.get("scope", "other"))
    category = _scope_to_category(scope)
    out_elems = sum(_shape_size(s) for s in event.output_shapes)
    in_elems = sum(_shape_size(s) for s in event.input_shapes)

    if event.name == "matmul":
        if event.phase == "forward":
            (n, k), (_, m) = event.input_shapes[0], event.input_shapes[1]
            flops = 2.0 * n * k * m
            read_bytes = (n * k + k * m) * 4.0
            write_bytes = n * m * 4.0
            launches = 1
        else:
            # backward of C = A @ B launches two GEMMs: dA = dC B^T, dB = A^T dC
            (n, m) = event.input_shapes[0]
            total_out = sum(_shape_size(s) for s in event.output_shapes)
            k = max(1, total_out // max(1, n + m))
            flops = 4.0 * n * k * m
            read_bytes = 2.0 * (n * m + k * m + n * k) * 4.0
            write_bytes = (n * k + k * m) * 4.0
            launches = 2
        access = contiguous_bytes_cost(read_bytes + write_bytes, spec)
        return KernelCost(
            name=f"gemm_{event.phase}",
            category=category if category != CATEGORY_OTHER else CATEGORY_UPDATE,
            flops=flops,
            global_read_bytes=read_bytes,
            global_write_bytes=write_bytes,
            mem_requests=access.requests,
            mem_transactions=access.transactions,
            active_thread_ratio=1.0,
            launches=launches,
        )

    if event.name in _COPY_OPS:
        nbytes = (in_elems + out_elems) * 4.0
        access = contiguous_bytes_cost(nbytes, spec)
        return KernelCost(
            name=f"{event.name}_{event.phase}",
            category=category,
            flops=0.0,
            global_read_bytes=in_elems * 4.0,
            global_write_bytes=out_elems * 4.0,
            mem_requests=access.requests,
            mem_transactions=access.transactions,
            launches=1,
        )

    # Elementwise / reduction ops: memory bound streaming kernels.
    flops_per_elem = 4.0 if event.name in _TRANSCENDENTAL else 1.0
    work_elems = max(in_elems, out_elems)
    nbytes = (in_elems + out_elems) * 4.0
    access = contiguous_bytes_cost(nbytes, spec)
    return KernelCost(
        name=f"{event.name}_{event.phase}",
        category=category if category != CATEGORY_OTHER else CATEGORY_ELEMENTWISE,
        flops=flops_per_elem * work_elems,
        global_read_bytes=in_elems * 4.0,
        global_write_bytes=out_elems * 4.0,
        mem_requests=access.requests,
        mem_transactions=access.transactions,
        launches=1,
    )


#: a context's memo is emptied when it reaches this many keys
_MEMO_LIMIT = 1024

#: memo miss marker (a cached cost may be ``None``: the op launches nothing)
_UNSEEN = object()


@lru_cache(maxsize=64, typed=True)
def _context_memo(
    spec: GPUSpec, num_nodes: int, scale: float
) -> Dict[tuple, Optional[KernelCost]]:
    """The generic-cost memo of one ``(spec, num_nodes, scale)`` context:
    ``(name, phase, input_shapes, output_shapes, scope) -> cost``."""
    return {}


class KernelCostCollector:
    """Op observer that accumulates kernel costs for one execution region.

    Parameters
    ----------
    spec:
        GPU spec used for generic-op estimates.
    num_nodes:
        Node count of the snapshots currently being processed; ops whose
        leading dimension matches are scaled by ``scale``.
    scale:
        Workload extrapolation factor (1.0 = no extrapolation).

    The three are fixed at construction, which looks up the memo of that
    context once, so an event never hashes the spec.
    """

    def __init__(self, spec: GPUSpec, num_nodes: int = 0, scale: float = 1.0) -> None:
        self.spec = spec
        self.num_nodes = num_nodes
        self.scale = scale
        self.costs: List[KernelCost] = []
        self.events_seen = 0
        self._memo = _context_memo(spec, num_nodes, scale)

    def __call__(self, event: OpEvent) -> None:
        self.events_seen += 1
        # Kernels that attach an explicit cost (SpMM flavours, UpdateGEMM)
        # already applied their own workload scale; only generic dense ops
        # are estimated (and extrapolated) here.
        attrs = event.attrs
        cost = attrs.get("kernel_cost")
        if cost is None:
            key = (
                event.name,
                event.phase,
                event.input_shapes,
                event.output_shapes,
                attrs.get("scope", "other"),
            )
            memo = self._memo
            cost = memo.get(key, _UNSEEN)
            if cost is _UNSEEN:
                if len(memo) >= _MEMO_LIMIT:
                    memo.clear()
                cost = memo[key] = self._generic_cost(event)
            if cost is None:
                return
        self.costs.append(cost)

    def _generic_cost(self, event: OpEvent) -> Optional[KernelCost]:
        """The cost of a generic op, extrapolated by ``scale`` when its
        leading dimension is the snapshot node count (see the module
        docstring)."""
        cost = estimate_event_cost(event, self.spec)
        scale, num_nodes = self.scale, self.num_nodes
        if cost is not None and scale != 1.0 and num_nodes > 0:
            shapes = event.input_shapes + event.output_shapes
            if any(len(s) >= 1 and s[0] == num_nodes for s in shapes):
                cost = cost.scaled(scale)
        return cost

    # -- draining -----------------------------------------------------------
    def drain(self) -> List[KernelCost]:
        """Return and clear the collected costs."""
        drained, self.costs = self.costs, []
        return drained
