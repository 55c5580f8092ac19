"""Fleet-scale serving: node-sharded store, load-aware admission, elastic replicas.

:class:`FleetServingEngine` is the "millions of users" counterpart of the
round-robin :class:`~repro.distributed.serving.ShardedServingEngine`.  Both
share one :class:`~repro.serving.store.IncrementalSnapshotStore` across
their replicas and apply each delta to it once; three things change
relative to round-robin replication:

**Node-sharded store.**  A :class:`~repro.graph.partition.GraphPartitioner`
plan assigns each replica a contiguous node range it *owns*.  A deployed
shard holds only its own rows (features + adjacency row range + halo rows)
instead of the full window copy the sharded engine accounts per replica, so
per-replica store memory drops ~K-fold; the report accounts that
shard-local footprint per replica.  Requests whose nodes spill outside the
owner's range pay an explicit *halo gather* — a host op sized by the remote
rows times the window depth at the host gather bandwidth, which the replica
schedules before the batch's transfers (they wait on it).  Because the
numerics still read the shared store, predictions stay bit-identical to the
single-device scheduler.

**Load-aware routing with admission control.**  Each request routes to the
active replica owning the most of its nodes, tie-broken by micro-batcher
queue depth.  When the chosen replica's queue depth has reached
``admission_limit`` the request is *shed*: :meth:`FleetServingEngine.submit`
returns ``None`` and the report surfaces ``rejected_requests``.  Shedding
bounds the tail latency of admitted traffic under bursts, which unbounded
round-robin queueing cannot.

**Elastic replica pool.**  ``num_shards`` replicas are provisioned, but only
``min_replicas`` start active; a rolling p99 over recently completed
requests is compared against ``slo_p99_ms`` on every submission, scaling the
active pool up (p99 above SLO) or down (p99 under half the SLO) within
``[min_replicas, num_shards]``, with a cooldown between decisions.  Scale
events are kept in ``scale_events`` (the trace projects them onto the serve
clock) and counted in the report.  Inactive replicas keep absorbing deltas
so their caches are consistent the moment they activate.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.distributed.serving import ShardedServingEngine
from repro.graph.csr import INDEX_BYTES
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.partition import GraphPartitioner
from repro.nn.base_model import DGNNModel
from repro.serving.metrics import ServingReport
from repro.serving.scheduler import (
    BatchResult,
    FleetConfig,
    ServingConfig,
    ServingScheduler,
    _build_serving_replicas,
)
from repro.serving.store import IncrementalSnapshotStore


#: completed requests in the autoscaler's rolling p99 window
SCALE_WINDOW = 16
#: admitted submissions between scale decisions
SCALE_COOLDOWN = 8


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscale decision of the elastic pool."""

    direction: str  # "up" | "down"
    active_replicas: int  # pool size *after* the decision
    at: float  # simulated time of the triggering submission
    p99_ms: float  # rolling p99 that triggered it


class FleetServingEngine(ShardedServingEngine):
    """Node-sharded, admission-controlled, autoscaling serving fleet.

    Inherits the shared store and its apply-once ingestion, trace replay
    and report merging of
    :class:`ShardedServingEngine`; overrides routing (ownership + queue
    depth + admission) and extends the merged report with fleet accounting
    (node-sharded store footprint, admission, scaling, halo).
    """

    def __init__(
        self,
        replicas: List[ServingScheduler],
        store: IncrementalSnapshotStore,
        config: Optional[FleetConfig] = None,
    ) -> None:
        super().__init__(replicas, store)
        self.fleet_config = config or FleetConfig()
        if self.fleet_config.num_shards != len(replicas):
            raise ValueError(
                f"FleetConfig.num_shards={self.fleet_config.num_shards} but "
                f"{len(replicas)} replicas were provided"
            )
        partitioner = GraphPartitioner(self.fleet_config.num_shards)
        #: persistent node-ownership boundaries (length ``num_shards + 1``)
        self.boundaries = partitioner.plan(store.window_snapshots())
        self._partitioner = partitioner
        self._active = self.fleet_config.min_replicas
        self._since_scale = SCALE_COOLDOWN
        self.admitted_requests = 0
        self.rejected_requests = 0
        self.scale_events: List[ScaleEvent] = []
        #: per-shard outstanding requests (queued + in flight), maintained
        #: incrementally by submit/pump instead of re-scanned from the
        #: ever-growing request records on every admission decision
        self._outstanding = [0] * self.num_shards
        #: per-shard min-heaps of (completion_time, finished requests);
        #: ``pump`` pushes as batches execute, ``queue_depth`` drains <= now
        self._completions: List[List[Tuple[float, int]]] = [
            [] for _ in range(self.num_shards)
        ]
        #: every request completed fleet-wide as ``(completion_time,
        #: arrival_time, latency)``, kept sorted for the autoscaler's rolling
        #: p99; ``_requests_seen[shard]`` counts the records of that replica's
        #: append-only ``metrics.requests`` already inserted
        self._completed: List[Tuple[float, float, float]] = []
        self._requests_seen = [0] * self.num_shards
        #: rolling p99 of ``_completed``'s tail, recomputed only after inserts
        self._recent_p99 = float("nan")
        for shard in range(self.num_shards):
            # Scope each replica to the node rows it owns: cache blocks keyed
            # outside the owner range would alias rows another replica
            # serves, and the replica charges a halo gather for remote rows.
            replicas[shard].scope_feature_cache(
                int(self.boundaries[shard]), int(self.boundaries[shard + 1])
            )

    # ------------------------------------------------------------------ pool state
    @property
    def active_replicas(self) -> int:
        """Replicas currently receiving traffic (a prefix of the pool)."""
        return self._active

    # ------------------------------------------------------------------ routing
    def queue_depth(self, shard: int, now: float) -> int:
        """Outstanding requests on a replica: queued plus in flight.

        A request stays "in flight" until its simulated completion time
        passes — admission must see the device backlog, not just the
        micro-batcher's queue, or small forced batches pile up on a hot
        replica far beyond the admission limit.  The depth is maintained
        incrementally: :meth:`submit` counts admissions, :meth:`pump`
        records batch completion times, and this query drains completions
        up to ``now`` — O(log batches) amortised instead of re-scanning
        every request record ever completed on each admission decision.
        """
        heap = self._completions[shard]
        while heap and heap[0][0] <= now:
            _, finished = heapq.heappop(heap)
            self._outstanding[shard] -= finished
        return self._outstanding[shard]

    def _route(self, ids: np.ndarray, now: float) -> Optional[int]:
        """Owner-most routing over the active pool with admission control."""
        active = range(self._active)
        owned = [
            int(
                np.count_nonzero(
                    (ids >= self.boundaries[s]) & (ids < self.boundaries[s + 1])
                )
            )
            for s in active
        ]
        best = max(owned)
        candidates = [s for s in active if owned[s] == best]
        depths = {s: self.queue_depth(s, now) for s in candidates}
        shard = min(candidates, key=lambda s: depths[s])
        if depths[shard] >= self.fleet_config.admission_limit:
            return None
        return shard

    def submit(
        self, node_ids: Iterable[int], *, at: Optional[float] = None
    ) -> Optional[int]:
        """Route one request through admission control.

        Returns the request id, or ``None`` when every eligible replica is
        at its admission limit and the request is shed.
        """
        self._touch_wall_clock()
        ids = np.asarray(list(node_ids), dtype=np.int64)
        now = self._elapsed_seconds() if at is None else at
        self._maybe_scale(now)
        shard = self._route(ids, now)
        if shard is None:
            self.rejected_requests += 1
            return None
        request_id = self.replicas[shard].submit(ids, at=at)
        # Count only after the replica accepted the request — submit raises
        # on out-of-range node ids and a failed submission is not backlog.
        self._outstanding[shard] += 1
        self.admitted_requests += 1
        return request_id

    def pump(self, now: Optional[float] = None, *, force: bool = False) -> List[BatchResult]:
        """Pump every shard, accounting completions, then re-check scale.

        Each batch's completion time feeds its shard's admission heap, and
        every pump tick — :meth:`run_trace` issues one per trace event —
        drives the autoscaler, so an idle fleet whose rolling p99 has
        headroom drains back down to ``min_replicas`` even when no
        submissions arrive to trigger a decision.
        """
        results: List[BatchResult] = []
        for shard, replica in enumerate(self.replicas):
            for result in replica.pump(now, force=force):
                heapq.heappush(
                    self._completions[shard],
                    (result.completion_time, len(result.predictions)),
                )
                results.append(result)
        self._maybe_scale(self._elapsed_seconds() if now is None else now)
        return results

    # ------------------------------------------------------------------ autoscale
    def _recent_p99_seconds(self) -> float:
        """Rolling p99 over the most recently completed requests, fleet-wide.

        Only the records the replicas appended since the last call are
        inserted into the sorted ``_completed`` list.  Records with equal
        ``(completion_time, arrival_time)`` have equal latencies, so the last
        ``SCALE_WINDOW`` latencies are those of a full sort of every record.
        The percentile is recomputed only when a record was inserted.
        """
        completed = self._completed
        inserted = False
        for shard, replica in enumerate(self.replicas):
            records = replica.metrics.requests
            for record in records[self._requests_seen[shard] :]:
                bisect.insort(
                    completed, (record.completion_time, record.arrival_time, record.latency)
                )
                inserted = True
            self._requests_seen[shard] = len(records)
        if inserted:
            recent = completed[-SCALE_WINDOW:]
            self._recent_p99 = float(
                np.percentile([latency for _, _, latency in recent], 99.0)
            )
        return self._recent_p99

    def _maybe_scale(self, now: float) -> None:
        cfg = self.fleet_config
        if self._since_scale < SCALE_COOLDOWN:
            self._since_scale += 1
            return
        p99 = self._recent_p99_seconds()
        if math.isnan(p99):
            return
        p99_ms = p99 * 1e3
        if p99_ms > cfg.slo_p99_ms and self._active < self.num_shards:
            self._active += 1
            self._record_scale("up", now, p99_ms)
        elif p99_ms < 0.5 * cfg.slo_p99_ms and self._active > cfg.min_replicas:
            self._active -= 1
            self._record_scale("down", now, p99_ms)

    def _record_scale(self, direction: str, now: float, p99_ms: float) -> None:
        self._since_scale = 0
        self.scale_events.append(
            ScaleEvent(
                direction=direction, active_replicas=self._active, at=now, p99_ms=p99_ms
            )
        )

    # ------------------------------------------------------------------ reporting
    def shard_store_bytes(self) -> List[float]:
        """Store bytes a deployed replica of each shard would hold today.

        Per window snapshot: the shard's feature-row slice, a compacted CSR of
        its adjacency row range, and the halo feature rows it caches to
        aggregate across the boundary.  The shared in-process store keeps the
        full window once; this is the per-node accounting the node-sharded
        deployment is built to achieve (vs. ``window_bytes()`` per replica in
        the replicated engine).
        """
        snapshots = self.store.window_snapshots()
        num_nodes = self.store.num_nodes
        feature_row_bytes = [
            snap.feature_bytes() / max(1, num_nodes) for snap in snapshots
        ]
        totals = [0.0] * self.num_shards
        for snap, row_bytes in zip(snapshots, feature_row_bytes):
            for shard in self._partitioner.shard_snapshot(snap, self.boundaries):
                local_adjacency = (
                    2 * shard.num_edges + shard.num_local_nodes + 1
                ) * INDEX_BYTES
                totals[shard.device] += (
                    shard.num_local_nodes * row_bytes
                    + local_adjacency
                    + shard.halo_feature_bytes(self.store.feature_dim)
                )
        return totals

    def report(self) -> ServingReport:
        """Merged report plus fleet accounting (admission, scaling, halo)."""
        merged = super().report()
        merged.engine = f"PiPAD-Fleet-x{self.num_shards}"
        shard_bytes = self.shard_store_bytes()
        # Fleet-wide sums in issue (uid) order, as one running total would add.
        gathers = sorted(g for replica in self.replicas for g in replica.halo_gathers)
        cfg = self.fleet_config
        merged.extras.update(
            {
                "admitted_requests": float(self.admitted_requests),
                "rejected_requests": float(self.rejected_requests),
                "active_replicas": float(self._active),
                "min_replicas": float(cfg.min_replicas),
                "max_replicas": float(self.num_shards),
                "scale_up_events": float(
                    sum(1 for e in self.scale_events if e.direction == "up")
                ),
                "scale_down_events": float(
                    sum(1 for e in self.scale_events if e.direction == "down")
                ),
                "halo_gather_bytes": float(sum(b for _, b, _ in gathers)),
                "halo_gather_seconds": float(sum(s for _, _, s in gathers)),
                "halo_gather_batches": float(len(gathers)),
                # node-sharded footprint overrides the replicated full-window
                # figure the base merge reports
                "per_replica_store_bytes": float(np.mean(shard_bytes)),
                "fleet_store_bytes": float(self.store.window_bytes()),
                "prefetch_depth": float(self.replicas[0].data.prefetch_depth),
                "prefetch_host_seconds": float(
                    sum(
                        replica.prefetcher.stats().get("prefetch_host_seconds", 0.0)
                        for replica in self.replicas
                    )
                ),
            }
        )
        for shard, value in enumerate(shard_bytes):
            merged.extras[f"shard{shard}_store_bytes"] = float(value)
        return merged


def build_fleet_serving_engine(
    graph: Union[DynamicGraph, IncrementalSnapshotStore],
    model: DGNNModel,
    fleet: Optional[FleetConfig] = None,
    config: Optional[ServingConfig] = None,
    **kwargs: Any,
) -> FleetServingEngine:
    """Wire a node-sharded fleet: one shared store, ``num_shards`` replicas.

    ``kwargs`` (``scale``, ``data``, ``memory``) reach every replica.
    """
    fleet = fleet or FleetConfig()
    replicas = _build_serving_replicas(graph, model, fleet.num_shards, config, **kwargs)
    return FleetServingEngine(replicas, replicas[0].store, fleet)
