"""Request coalescing for the serving engine.

One forward pass over the serving window produces predictions for *every*
node at the head version, so concurrent requests are nearly free to serve
together — the batcher's job is to trade a small queueing delay for that
amortization, exactly like micro-batching in production inference servers.
Requests are coalesced in arrival order until either ``max_requests`` are
pending or the oldest request has waited ``max_delay_ms``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, List

import numpy as np

from repro.graph.keys import unique
from repro.utils.validation import check_positive


@dataclass(frozen=True, eq=False)
class InferenceRequest:
    """One node-level prediction request."""

    request_id: int
    node_ids: np.ndarray
    arrival_time: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "node_ids", unique(np.asarray(self.node_ids, dtype=np.int64))
        )
        if len(self.node_ids) == 0:
            raise ValueError("a request needs at least one node id")


@dataclass(eq=False)
class MicroBatch:
    """A group of requests served by one forward pass."""

    batch_id: int
    requests: List[InferenceRequest]
    formed_time: float

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def node_ids(self) -> np.ndarray:
        """Union of the member requests' node ids (deduplicated)."""
        return unique(np.concatenate([r.node_ids for r in self.requests]))


class MicroBatcher:
    """Coalesces requests into micro-batches under a latency budget."""

    def __init__(self, *, max_requests: int = 16, max_delay_ms: float = 2.0) -> None:
        check_positive("max_requests", max_requests)
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        self.max_requests = max_requests
        self.max_delay_s = max_delay_ms * 1e-3
        self._pending: Deque[InferenceRequest] = deque()
        #: batch-id source; the replicas of one serving engine share it
        self.batch_ids = itertools.count()

    @property
    def pending(self) -> int:
        return len(self._pending)

    def submit(self, request: InferenceRequest) -> None:
        self._pending.append(request)

    def ready(self, now: float) -> bool:
        """Whether a batch should be cut at simulated time ``now``."""
        if not self._pending:
            return False
        if len(self._pending) >= self.max_requests:
            return True
        return now - self._pending[0].arrival_time >= self.max_delay_s

    def drain(self, now: float, *, force: bool = False) -> List[MicroBatch]:
        """Cut every batch that is due at ``now`` (all pending when forced)."""
        batches: List[MicroBatch] = []
        while self._pending and (force or self.ready(now)):
            members: List[InferenceRequest] = []
            while self._pending and len(members) < self.max_requests:
                members.append(self._pending.popleft())
            formed = max(now, max(r.arrival_time for r in members))
            batch_id = next(self.batch_ids)
            batches.append(MicroBatch(batch_id=batch_id, requests=members, formed_time=formed))
        return batches
