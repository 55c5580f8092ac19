"""Sharded entry point for the streaming serving scheduler.

Scales the single-device :class:`~repro.serving.scheduler.ServingScheduler`
to a device group the way online inference tiers actually shard: one
serving replica (session + caches + simulated GPU) per device, all reading
one shared :class:`~repro.serving.store.IncrementalSnapshotStore`, with
request traffic routed across the replicas.  A graph delta is applied to
the store once and every replica absorbs the result, so every shard serves
the same head version.  Each deployed replica would hold a full window
copy, which is what the report accounts per replica.  The replicas draw
request and batch ids from shared counters, so the ids a replica records
are the engine's ids.  Routing is deterministic round-robin, so a trace
replay is reproducible run to run — the property the golden determinism
test locks in for the single-device engine.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.dynamic_graph import DynamicGraph
from repro.memory import aggregate_cache_stats
from repro.nn.base_model import DGNNModel
from repro.serving.deltas import GraphDelta
from repro.serving.metrics import DeltaRecord, ServingMetrics, ServingReport
from repro.serving.scheduler import (
    BatchResult,
    ServingConfig,
    ServingScheduler,
    TraceReplay,
    _build_serving_replicas,
)
from repro.serving.store import DeltaReport, IncrementalSnapshotStore
from repro.utils.validation import check_positive

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


class ShardedServingEngine(TraceReplay):
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
        #: one record per delta applied to the shared store, stamped on the
        #: engine clock; the replicas keep their own records of absorbing it
        self.deltas: List[DeltaRecord] = []

    def _elapsed_seconds(self) -> float:
        return max(replica.device.elapsed_seconds() for replica in self.replicas)

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
        stamp = self._elapsed_seconds() if at is None else at
        report = self.store.apply(delta)
        for replica in self.replicas:
            replica.absorb_delta(report, at=at)
        self.deltas.append(DeltaRecord(report.version, report.num_touched, stamp))
        return report

    def submit(self, node_ids: Iterable[int], *, at: Optional[float] = None) -> int:
        """Route one request to the next shard; returns its request id."""
        self._touch_wall_clock()
        shard = self._next_shard
        self._next_shard = (self._next_shard + 1) % self.num_shards
        return self.replicas[shard].submit(node_ids, at=at)

    def pump(self, now: Optional[float] = None, *, force: bool = False) -> List[BatchResult]:
        """Cut and execute due micro-batches on every shard, in shard order.

        Prediction dicts are keyed by the request ids :meth:`submit` handed
        out, and batch ids are the engine's: the replicas draw both from
        shared counters.
        """
        return [
            result for replica in self.replicas for result in replica.pump(now, force=force)
        ]

    # ------------------------------------------------------------------ reporting
    def report(self) -> ServingReport:
        """One merged report over all shards.

        Request and batch records merge in batch-id order, which is the
        order the shards executed them in: batch ids come from one counter
        as :meth:`pump` cuts the batches.  Every replica absorbs every delta,
        but a delta is one update, not ``K``: the merged delta records are
        the engine's, one per :meth:`ingest`, and ``rows_per_delta`` stays
        the mean rows one delta touched.  The replicas' own patch work adds
        up in the ``rows_patched`` reuse stat.
        """
        reports = [replica.report() for replica in self.replicas]
        merged = ServingMetrics()
        merged.requests = sorted(
            (r for replica in self.replicas for r in replica.metrics.requests),
            key=lambda record: record.batch_id,
        )
        merged.batches = sorted(
            (b for replica in self.replicas for b in replica.metrics.batches),
            key=lambda record: record.batch_id,
        )
        merged.deltas = list(self.deltas)

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
            wall_seconds=self._wall_seconds(),
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

    ``kwargs`` (``scale``, ``data``, ``memory``) reach every replica.
    """
    check_positive("num_shards", num_shards)
    replicas = _build_serving_replicas(graph, model, num_shards, config, **kwargs)
    return ShardedServingEngine(replicas, replicas[0].store)
