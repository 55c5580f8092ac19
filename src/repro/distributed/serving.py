"""Sharded entry point for the streaming serving scheduler.

Scales the single-device :class:`~repro.serving.scheduler.ServingScheduler`
to a device group the way online inference tiers actually shard: one
serving replica (session + caches + simulated GPU) per device, all reading
one shared :class:`~repro.serving.store.IncrementalSnapshotStore`, with
request traffic routed across the replicas.  A graph delta is applied to
the store once and every replica absorbs the result, so every shard serves
the same head version.  Each deployed replica would hold a full window
copy, which is what the report accounts per replica.  Routing is
deterministic round-robin, so a trace replay is reproducible run to run —
the property the golden determinism test locks in for the single-device
engine.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.dynamic_graph import DynamicGraph
from repro.memory import aggregate_cache_stats
from repro.nn.base_model import DGNNModel
from repro.serving.deltas import GraphDelta, ServingEvent
from repro.serving.metrics import ServingMetrics, ServingReport
from repro.serving.scheduler import (
    BatchResult,
    ServingConfig,
    ServingScheduler,
    _build_serving_replicas,
)
from repro.serving.store import DeltaReport, IncrementalSnapshotStore
from repro.utils.validation import check_positive

#: offset separating one shard's batch ids from the next in merged output
_BATCH_ID_STRIDE = 1_000_000
#: per-replica breakdown keys that are ratios/horizons, not additive seconds
_NON_ADDITIVE_BREAKDOWN = ("makespan", "gpu_utilization", "sm_utilization")
#: per-replica reuse-stat keys that are gauges (cache sizes, buffer bytes),
#: not additive counters — summing them across K identical replicas reads as
#: a K-times-larger cache and becomes outright wrong under node-sharding
_NON_ADDITIVE_REUSE = (
    "cpu_cached_snapshots",
    "gpu_resident_snapshots",
    "gpu_buffer_bytes",
)


def _merge_stat_maps(
    maps: List[Dict[str, float]], non_additive: Tuple[str, ...]
) -> Dict[str, float]:
    """Merge per-replica stat dicts: sum counters, average gauge/ratio keys.

    Shared by the ``breakdown`` and ``reuse_stats`` merges so both follow one
    additive/non-additive split (callers may still override individual keys,
    e.g. ``makespan`` → max).
    """
    merged: Dict[str, float] = {}
    for stats in maps:
        for key, value in stats.items():
            if key not in non_additive:
                merged[key] = merged.get(key, 0.0) + value
    for key in non_additive:
        values = [stats[key] for stats in maps if key in stats]
        if values:
            merged[key] = float(np.mean(values))
    return merged


class ShardedServingEngine:
    """Fans request traffic across per-device replicas of one shared store."""

    def __init__(
        self, replicas: List[ServingScheduler], store: IncrementalSnapshotStore
    ) -> None:
        if not replicas:
            raise ValueError("need at least one serving replica")
        if any(replica.store is not store for replica in replicas):
            raise ValueError(
                "replicas must share one IncrementalSnapshotStore; build them "
                "through build_sharded_serving_engine or build_fleet_serving_engine"
            )
        self.replicas = replicas
        self.store = store
        self._next_shard = 0
        #: global request id -> (shard index, shard-local request id)
        self._routes: List[Tuple[int, int]] = []
        #: (shard index, shard-local request id) -> global request id
        self._global_ids: Dict[Tuple[int, int], int] = {}
        #: wall clock starts at first traffic, matching the single-device
        #: scheduler — building K replicas is provisioning, not serving time
        self._wall_start: Optional[float] = None

    def _touch_wall_clock(self) -> None:
        if self._wall_start is None:
            self._wall_start = time.perf_counter()

    @property
    def num_shards(self) -> int:
        return len(self.replicas)

    # ------------------------------------------------------------------ traffic
    def ingest(self, delta: GraphDelta, *, at: Optional[float] = None) -> DeltaReport:
        """Apply a delta once to the shared store; every replica absorbs it.

        Replicas that receive no traffic absorb too, so their caches are
        consistent the moment routing sends them a request.
        """
        self._touch_wall_clock()
        report = self.store.apply(delta)
        for replica in self.replicas:
            replica.absorb_delta(report, at=at)
        return report

    def submit(self, node_ids: Iterable[int], *, at: Optional[float] = None) -> int:
        """Route one request to the next shard; returns a global request id."""
        self._touch_wall_clock()
        shard = self._next_shard
        self._next_shard = (self._next_shard + 1) % self.num_shards
        local_id = self.replicas[shard].submit(node_ids, at=at)
        return self._register_route(shard, local_id)

    def _register_route(self, shard: int, local_id: int) -> int:
        """Issue the next global request id for a shard-local submission."""
        global_id = len(self._routes)
        self._routes.append((shard, local_id))
        self._global_ids[(shard, local_id)] = global_id
        return global_id

    def route_of(self, request_id: int) -> Tuple[int, int]:
        """(shard index, shard-local id) a global request id resolved to."""
        return self._routes[request_id]

    def _to_global(self, shard: int, local_id: int) -> int:
        """Global id of a shard-local request.

        Strict by design: falling back to the local id would collide with
        already-issued global ids and silently mis-attribute predictions, so
        requests must enter through :meth:`submit`, never through a replica
        directly.
        """
        try:
            return self._global_ids[(shard, local_id)]
        except KeyError:
            raise KeyError(
                f"request {local_id} on shard {shard} was not submitted through "
                "ShardedServingEngine.submit(); submit requests via the engine "
                "so they receive a collision-free global id"
            ) from None

    def pump(self, now: Optional[float] = None, *, force: bool = False) -> List[BatchResult]:
        """Cut and execute due micro-batches on every shard.

        The returned results are re-keyed from shard-local ids to engine-level
        ones, so the sharded engine honours the same id contract as the
        single-device scheduler: prediction dicts use the global request ids
        :meth:`submit` handed out, and batch ids carry the same per-shard
        offset the merged report uses (shard-local ids collide across shards
        and must not leak out).
        """
        results: List[BatchResult] = []
        for shard, replica in enumerate(self.replicas):
            for result in replica.pump(now, force=force):
                results.append(
                    BatchResult(
                        batch_id=result.batch_id + shard * _BATCH_ID_STRIDE,
                        decision=result.decision,
                        completion_time=result.completion_time,
                        predictions={
                            self._to_global(shard, local_id): rows
                            for local_id, rows in result.predictions.items()
                        },
                    )
                )
        return results

    def run_trace(self, events: Iterable[ServingEvent]) -> ServingReport:
        """Replay a timestamped trace across the sharded engine."""
        self._touch_wall_clock()
        last_time = 0.0
        for event in sorted(events, key=lambda e: e.time):
            self.pump(event.time)
            if event.kind == "delta":
                assert event.delta is not None
                self.ingest(event.delta, at=event.time)
            else:
                assert event.node_ids is not None
                self.submit(event.node_ids, at=event.time)
                self.pump(event.time)
            last_time = event.time
        final = max([last_time] + [r.device.elapsed_seconds() for r in self.replicas])
        self.pump(final, force=True)
        return self.report()

    # ------------------------------------------------------------------ reporting
    def report(self) -> ServingReport:
        """One merged report over all shards.

        Latency records concatenate across shards (request ids map back to
        the global ids ``submit`` returned; batch ids are offset so they
        stay unique).  ``deltas_ingested`` is a logical per-engine count — a
        delta every replica absorbs is one update, not ``K`` — so it merges
        as the max across replicas; ``rows_touched`` is fleet-wide patch
        *work* — every replica invalidates and re-patches its own cache — so
        it merges as the sum (replicas may see different traffic and touch
        different row counts; copying replica 0's value would under-count).
        """
        reports = [replica.report() for replica in self.replicas]
        merged = ServingMetrics()
        for shard, replica in enumerate(self.replicas):
            offset = shard * _BATCH_ID_STRIDE
            for record in replica.metrics.requests:
                merged.record_request(
                    dataclasses.replace(
                        record,
                        request_id=self._to_global(shard, record.request_id),
                        batch_id=record.batch_id + offset,
                    )
                )
            for batch in replica.metrics.batches:
                merged.record_batch(
                    dataclasses.replace(batch, batch_id=batch.batch_id + offset)
                )
        merged.deltas_ingested = max(
            replica.metrics.deltas_ingested for replica in self.replicas
        )
        merged.rows_touched = sum(
            replica.metrics.rows_touched for replica in self.replicas
        )

        # Kind-seconds and hit/miss counters add up across shards; horizons,
        # utilization ratios and cache-size gauges do not (summing K makespans
        # ~Kx-inflates the clock, summing K buffer gauges ~Kx-inflates the
        # cache) — those merge as the mean, and makespan as the max below.
        breakdown = _merge_stat_maps(
            [report.breakdown for report in reports], _NON_ADDITIVE_BREAKDOWN
        )
        breakdown["makespan"] = max(
            report.breakdown.get("makespan", 0.0) for report in reports
        )
        reuse_stats = _merge_stat_maps(
            [report.reuse_stats for report in reports], _NON_ADDITIVE_REUSE
        )
        extras: Dict[str, float] = {"num_shards": float(self.num_shards)}
        for shard, report in enumerate(reports):
            extras[f"shard{shard}_requests"] = float(report.metrics.num_requests)
        extras["per_replica_store_bytes"] = float(self.store.window_bytes())
        # Feature-cache tier counters add up across replicas; the aggregate
        # recomputes the blended hit rate rather than summing ratios.
        cache_stats = [
            replica.feature_cache.stats()
            for replica in self.replicas
            if replica.feature_cache is not None
        ]
        if cache_stats:
            extras.update(aggregate_cache_stats(cache_stats))
        return ServingReport(
            engine=f"{reports[0].engine}-x{self.num_shards}",
            model=reports[0].model,
            dataset=reports[0].dataset,
            simulated_seconds=max(r.simulated_seconds for r in reports),
            wall_seconds=(
                0.0 if self._wall_start is None else time.perf_counter() - self._wall_start
            ),
            metrics=merged,
            breakdown=breakdown,
            reuse_stats=reuse_stats,
            gpu_utilization=float(np.mean([r.gpu_utilization for r in reports])),
            peak_memory_bytes=max(r.peak_memory_bytes for r in reports),
            extras=extras,
        )


def build_sharded_serving_engine(
    graph: DynamicGraph,
    model: DGNNModel,
    num_shards: int,
    config: Optional[ServingConfig] = None,
    **kwargs: Any,
) -> ShardedServingEngine:
    """Wire ``num_shards`` replicas of one store behind a sharded entry point.

    ``kwargs`` (``gpu``, ``pcie``, ``host``, ``scale``, ``data``,
    ``memory``) reach every replica.
    """
    check_positive("num_shards", num_shards)
    replicas = _build_serving_replicas(graph, model, num_shards, config, **kwargs)
    return ShardedServingEngine(replicas, replicas[0].store)
