"""The streaming serving engine: policy + pipelined batch execution.

:class:`ServingScheduler` is the serving counterpart of the PiPAD trainer's
frame loop.  Micro-batches drain from the :class:`~repro.serving.batcher.
MicroBatcher`, a tuner-backed :class:`ServingPolicy` picks the window
partitioning (``S_per``) per batch, and each batch runs through the same
simulated-GPU pipeline the trainer uses: host preparation on the CPU
stream, cache-miss transfers on the copy stream with pinned memory, the
parallel-GNN kernels on the compute stream, and the prediction read-back on
the D2H engine — so transfers for batch ``k+1`` hide behind batch ``k``'s
compute exactly as in Fig. 8.

Graph deltas interleave with batches: :meth:`ServingScheduler.ingest`
applies them to the :class:`~repro.serving.store.IncrementalSnapshotStore`
and lets the :class:`~repro.serving.session.InferenceSession` patch the
reuse cache incrementally, so a delta costs work proportional to its
touched rows rather than to the graph.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.datapipe import (
    DataPipe,
    DataPipeConfig,
    PipeItem,
    Prefetcher,
    apply_cache_plan,
)
from repro.core.tuner import (
    DynamicTuner,
    FrameProfile,
    TuningDecision,
    activation_bytes,
    capped_candidates,
)
from repro.gpu.device import SimulatedGPU
from repro.graph.dynamic_graph import DynamicGraph
from repro.memory import (
    FeatureCache,
    MemoryConfig,
    blocks_covering,
    blocks_of_rows,
    build_feature_cache,
)
from repro.nn.aggregation import ReuseManager
from repro.nn.base_model import DGNNModel
from repro.serving.batcher import InferenceRequest, MicroBatch, MicroBatcher
from repro.serving.deltas import GraphDelta, ServingEvent
from repro.serving.metrics import (
    BatchRecord,
    DeltaRecord,
    RequestRecord,
    ServingMetrics,
    ServingReport,
)
from repro.serving.session import InferenceSession
from repro.serving.store import DeltaReport, IncrementalSnapshotStore
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving engine.

    Serving runs every PiPAD mechanism at its training default (CUDA Graph,
    sliced CSR, weight reuse, the tuner's
    :data:`~repro.core.tuner.S_PER_CANDIDATES`); only the reuse, pipeline
    and fixed-``S_per`` switches and the micro-batching and windowing knobs
    of online traffic are set here.
    """

    #: number of recent snapshot versions the recurrent models consume
    window: int = 8
    #: micro-batch cut thresholds
    max_batch_requests: int = 16
    max_delay_ms: float = 2.0
    #: force a fixed parallelism level (bypasses the tuner) when set
    fixed_s_per: Optional[int] = None
    #: serve first-layer aggregations from the reuse cache and patch them
    #: incrementally on deltas; disabling recomputes every batch in full
    enable_reuse: bool = True
    #: overlap transfer/compute/host work on separate streams
    enable_pipeline: bool = True

    def __post_init__(self) -> None:
        check_positive("window", self.window)
        check_positive("max_batch_requests", self.max_batch_requests)
        check_non_negative("max_delay_ms", self.max_delay_ms)
        if self.fixed_s_per is not None:
            check_positive("fixed_s_per", self.fixed_s_per)
            if self.fixed_s_per > self.window:
                raise ValueError(
                    f"serving.fixed_s_per ({self.fixed_s_per}) exceeds "
                    f"serving.window ({self.window})"
                )


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the fleet engine (:mod:`repro.distributed.fleet`): sharding,
    admission and autoscaling.  The autoscaler's window and cooldown are
    that module's ``SCALE_WINDOW`` and ``SCALE_COOLDOWN``."""

    #: provisioned replicas; also the number of node shards (pool ceiling)
    num_shards: int = 1
    #: replicas active at start (and the scale-down floor)
    min_replicas: int = 1
    #: per-replica queue depth at which new requests are shed
    admission_limit: int = 32
    #: p99 latency target (milliseconds, simulated time) driving autoscale
    slo_p99_ms: float = 50.0

    def __post_init__(self) -> None:
        check_positive("num_shards", self.num_shards)
        check_positive("min_replicas", self.min_replicas)
        check_positive("admission_limit", self.admission_limit)
        check_positive("slo_p99_ms", self.slo_p99_ms)
        if self.min_replicas > self.num_shards:
            raise ValueError(
                f"need min_replicas <= num_shards, got min={self.min_replicas} "
                f"shards={self.num_shards}"
            )


@dataclass(frozen=True)
class BatchResult:
    """Predictions and accounting for one executed micro-batch."""

    batch_id: int
    decision: TuningDecision
    completion_time: float
    #: per-request prediction rows (request node order)
    predictions: Dict[int, np.ndarray]


class ServingPolicy:
    """Chooses the window partitioning per micro-batch via the dynamic tuner.

    The policy keeps an online estimate of per-snapshot compute time (updated
    from the kernel costs of executed batches, the serving analogue of the
    preparing-epoch statistics) and hands the tuner a forward-only frame
    profile; the tuner's offline speedup table does the rest.
    """

    def __init__(
        self,
        tuner: DynamicTuner,
        config: ServingConfig,
        *,
        pcie_bandwidth_gbs: float,
        scale: float = 1.0,
    ) -> None:
        self.tuner = tuner
        self.config = config
        self.pcie_bandwidth_gbs = pcie_bandwidth_gbs
        self.scale = scale
        self._compute_seconds_per_snapshot: Optional[float] = None
        self.decisions: List[TuningDecision] = []

    def observe_compute(self, kernel_seconds: float, num_snapshots: int) -> None:
        """Fold one executed batch's kernel seconds into the online estimate."""
        if num_snapshots <= 0:
            return
        sample = kernel_seconds / num_snapshots
        if self._compute_seconds_per_snapshot is None:
            self._compute_seconds_per_snapshot = sample
        else:  # EMA so the estimate tracks drift in graph density
            self._compute_seconds_per_snapshot = (
                0.8 * self._compute_seconds_per_snapshot + 0.2 * sample
            )

    def _profile(
        self, store: IncrementalSnapshotStore, session: InferenceSession, batch_index: int
    ) -> FrameProfile:
        overlap_rates: Dict[int, float] = {}
        for candidate in self.tuner.candidates:
            groups = store.partition_positions(candidate)
            overlap_rates[candidate] = float(
                np.mean([store.partition_decomposition(g).overlap_rate for g in groups])
            )
        return FrameProfile.sized(
            batch_index,
            overlap_rates,
            feature_bytes=float(store.head.feature_bytes()),
            adjacency_bytes=float(store.head.adjacency.nbytes),
            num_nodes=store.num_nodes,
            feature_dim=store.feature_dim,
            hidden_dim=session.model.hidden_features,
            snapshots=store.window_size,
            scale=self.scale,
            compute_seconds=self._compute_seconds_per_snapshot,
        )

    def choose(
        self, store: IncrementalSnapshotStore, session: InferenceSession, batch: MicroBatch
    ) -> TuningDecision:
        if self.config.fixed_s_per is not None:
            decision = TuningDecision(
                frame_index=batch.batch_id,
                s_per=self.config.fixed_s_per,
                estimated_speedup=1.0,
                overlap_rate=store.overlap_rate(),
                reason="fixed by configuration",
            )
        else:
            profile = self._profile(store, session, batch.batch_id)
            decision = self.tuner.decide_forward(
                profile, pcie_bandwidth_gbs=self.pcie_bandwidth_gbs
            )
        self.decisions.append(decision)
        return decision


class TraceReplay:
    """The trace replay and wall clock every serving engine shares.

    The wall clock starts at first traffic (submit/ingest/run_trace), not
    at construction: building replicas is provisioning, not serving time.
    An engine supplies ``pump``, ``ingest``, ``submit``, ``report`` and
    :meth:`_elapsed_seconds`.
    """

    _wall_start: Optional[float] = None

    def _touch_wall_clock(self) -> None:
        if self._wall_start is None:
            self._wall_start = time.perf_counter()

    def _wall_seconds(self) -> float:
        return 0.0 if self._wall_start is None else time.perf_counter() - self._wall_start

    def _elapsed_seconds(self) -> float:
        """Simulated time the engine's devices have reached."""
        raise NotImplementedError

    def run_trace(self, events: Iterable[ServingEvent]) -> ServingReport:
        """Replay a timestamped delta/request trace and return the report."""
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
        self.pump(max(last_time, self._elapsed_seconds()), force=True)
        return self.report()


class ServingScheduler(TraceReplay):
    """Drives deltas and request micro-batches through the simulated pipeline."""

    def __init__(
        self,
        model: DGNNModel,
        store: IncrementalSnapshotStore,
        config: Optional[ServingConfig] = None,
        *,
        scale: float = 1.0,
        dataset: str = "serving",
        data: Optional[DataPipeConfig] = None,
        memory: Optional[MemoryConfig] = None,
    ) -> None:
        self.config = config or ServingConfig()
        self.store = store
        self.model = model
        self.dataset = dataset
        self.scale = scale
        self.memory = memory or MemoryConfig()
        self.device = SimulatedGPU(use_cuda_graph=True)
        self.data = (data or DataPipeConfig()).for_pipeline(self.config.enable_pipeline)
        self.datapipe = DataPipe(self.data, self.device.host)
        self.reuse = ReuseManager(self.device, enabled=self.config.enable_reuse)
        self.session = InferenceSession(
            model,
            store,
            self.device,
            reuse=self.reuse,
            preparer=self.datapipe.preparer,
            scale=scale,
        )
        self.prefetcher = Prefetcher(self.datapipe, self.device, domain="serve")
        tuner = DynamicTuner(
            self.device.spec,
            capped_candidates(store.window_capacity),
            feature_dim=store.feature_dim,
        )
        self.policy = ServingPolicy(
            tuner,
            self.config,
            pcie_bandwidth_gbs=self.device.pcie.bandwidth_gbs,
            scale=scale,
        )
        self.batcher = MicroBatcher(
            max_requests=self.config.max_batch_requests,
            max_delay_ms=self.config.max_delay_ms,
        )
        #: node range this scheduler owns: its feature cache covers it and
        #: rows outside it pay a halo gather (fleet replicas narrow it to
        #: their shard via :meth:`scope_feature_cache`)
        self._cache_lo = 0
        self._cache_hi = store.num_nodes
        self.feature_cache: Optional[FeatureCache] = build_feature_cache(
            self.device, self.memory,
            feature_bytes=(
                float(store.head.feature_bytes()) * store.window_capacity * scale
            ),
            feature_set="serving window feature set",
            parameters=model.parameters(),
            activation_bytes=activation_bytes(
                store.window_capacity, store.num_nodes, model.hidden_features, scale
            ),
        )
        # In-flight pin-stage staging buffers count against the cache's
        # pinned tier (pinned_budget_mb covers residency and staging alike).
        self.prefetcher.cache = self.feature_cache
        self.metrics = ServingMetrics()
        #: ``(op uid, bytes, seconds)`` of every halo gather, in issue order
        self.halo_gathers: List[Tuple[int, float, float]] = []
        #: request-id source; replicas of one engine share it, so their ids
        #: are the engine's ids
        self._request_ids = itertools.count()
        self._last_delta_op = None

    def _elapsed_seconds(self) -> float:
        return self.device.elapsed_seconds()

    # ------------------------------------------------------------------ memory tiers
    def scope_feature_cache(self, lo: int, hi: int) -> None:
        """Own only the node range ``[lo, hi)`` (fleet shards): the cache
        covers it and rows outside it pay a halo gather.

        Clears any cached residency: blocks keyed outside the new scope
        would otherwise alias a different replica's rows.
        """
        if not 0 <= lo <= hi <= self.store.num_nodes:
            raise ValueError(
                f"cache scope [{lo}, {hi}) out of bounds for "
                f"{self.store.num_nodes} nodes"
            )
        self._cache_lo = lo
        self._cache_hi = hi
        if self.feature_cache is not None:
            self.feature_cache.clear()

    def _halo_gather(self, batch: MicroBatch):
        """Host op gathering the batch's rows outside the owned node range.

        Sized by the remote rows times the window depth at the host gather
        bandwidth; the batch's transfers wait on it.  ``None`` when every
        row is owned (always, unless :meth:`scope_feature_cache` narrowed
        the range).
        """
        ids = batch.node_ids
        remote = int(np.count_nonzero((ids < self._cache_lo) | (ids >= self._cache_hi)))
        if remote == 0:
            return None
        store = self.store
        gather_bytes = remote * store.feature_dim * 4.0 * store.window_size * self.scale
        seconds = gather_bytes / (self.device.host.gather_bandwidth_gbs * 1e9)
        op = self.device.host_op(
            seconds,
            label=f"halo_gather_b{batch.batch_id}",
            stream="cpu_prep" if self.config.enable_pipeline else "default",
            not_before=batch.formed_time,
        )
        self.halo_gathers.append((op.uid, gather_bytes, seconds))
        return op

    def _feature_block_requests(self, uncached_versions: int):
        """Cache keys + bytes for one batch's feature-row traffic.

        Serving keys are *unversioned* node blocks — snapshot versions are
        immutable, so a block stays valid until a delta touches its rows
        (row-based invalidation in :meth:`absorb_delta`).  Each block's cost
        is its rows across every window version the reuse cache does not
        already cover.
        """
        row_bytes = self.store.feature_dim * 4.0 * uncached_versions * self.scale
        return [
            (block, (b_hi - b_lo) * row_bytes)
            for block, b_lo, b_hi in blocks_covering(
                self._cache_lo, self._cache_hi, self.memory.block_rows
            )
        ]

    # ------------------------------------------------------------------ ingestion
    def ingest(self, delta: GraphDelta, *, at: Optional[float] = None) -> DeltaReport:
        """Apply a graph delta and incrementally maintain the reuse cache."""
        self._touch_wall_clock()
        return self.absorb_delta(self.store.apply(delta), at=at)

    def absorb_delta(self, report: DeltaReport, *, at: Optional[float] = None) -> DeltaReport:
        """Maintain caches/metrics for a delta already applied to the store.

        The seam the fleet engine needs: its replicas share one
        :class:`IncrementalSnapshotStore`, so the delta is applied once and
        every replica absorbs the resulting report (cache patch + accounting)
        without re-applying it.
        """
        self._touch_wall_clock()
        at = self.device.elapsed_seconds() if at is None else at
        patch_seconds = self.session.refresh(report)
        touched_blocks: List[int] = []
        if report.num_touched:
            touched_blocks = blocks_of_rows(
                report.touched_rows, self.memory.block_rows
            )
        if self.feature_cache is not None and touched_blocks:
            # The delta rewrote these rows: any tier copy (including halo
            # rows a prefetch may still be shipping) is stale.
            self.feature_cache.invalidate(touched_blocks)
        # Remember the op: batches serving the post-delta window must not
        # start before the delta that produced their state has been applied.
        # The delta op *writes* the touched feature blocks; a gather reading
        # those blocks without an ordering path is a race the happens-before
        # checker flags.
        self._last_delta_op = self.device.host_op(
            report.apply_seconds + patch_seconds,
            label=f"delta_v{report.version}",
            stream="cpu_prep" if self.config.enable_pipeline else "default",
            not_before=at,
            attrs={"hb_writes": list(touched_blocks)} if touched_blocks else None,
        )
        self.metrics.record_delta(DeltaRecord(report.version, report.num_touched, at))
        return report

    def submit(self, node_ids: Iterable[int], *, at: Optional[float] = None) -> int:
        """Enqueue a prediction request; returns its request id.

        Invalid node ids are rejected here, before anything is scheduled —
        a bad request must not poison the micro-batch it would join.
        """
        self._touch_wall_clock()
        at = self.device.elapsed_seconds() if at is None else at
        ids = np.asarray(list(node_ids), dtype=np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= self.store.num_nodes):
            raise ValueError(
                f"node ids must be in [0, {self.store.num_nodes}), got "
                f"[{ids.min()}, {ids.max()}]"
            )
        request = InferenceRequest(
            request_id=next(self._request_ids),
            node_ids=ids,
            arrival_time=at,
        )
        self.batcher.submit(request)
        return request.request_id

    # ------------------------------------------------------------------ execution
    def _execute(self, batch: MicroBatch) -> BatchResult:
        decision = self.policy.choose(self.store, self.session, batch)
        versions = self.store.window_versions()
        agg_bytes = int(self.store.num_nodes * self.store.feature_dim * 4 * self.scale)
        self.reuse.plan_gpu_residency(versions, {v: agg_bytes for v in versions})

        transfer_bytes = self.session.partition_transfer_bytes(decision.s_per)
        compute_stream = "compute" if self.config.enable_pipeline else "default"

        # Cached window versions skip host preparation and feature traffic
        # (the host stages are charged at least one snapshot).
        uncached = sum(0 if self.reuse.has_cached(v) else 1 for v in versions)
        item = PipeItem(
            label=f"b{batch.batch_id}",
            num_snapshots=max(1, uncached),
            transfer_bytes=transfer_bytes,
        )
        if self.feature_cache is not None and uncached:
            plan = self.feature_cache.access(self._feature_block_requests(uncached))
            item = apply_cache_plan(item, plan)
        depends_on = [] if self._last_delta_op is None else [self._last_delta_op]
        halo = self._halo_gather(batch)
        if halo is not None:
            depends_on.append(halo)
        transfer_ops = self.prefetcher.schedule(
            item,
            depends_on=depends_on or None,
            not_before=batch.formed_time,
        )
        transfer = transfer_ops[-1]

        hits_before = self.reuse.cpu_hits + self.reuse.gpu_hits
        misses_before = self.reuse.misses
        predictions, costs = self.session.predict(batch.node_ids, s_per=decision.s_per)
        terms = self.device.launch_terms(costs)
        self.device.dispatch(
            sum(t.launches for t in terms),
            label=f"dispatch_b{batch.batch_id}",
            stream=compute_stream,
        )
        kernel_ops = self.device.launch_kernels(
            costs,
            label=f"serve_b{batch.batch_id}",
            stream=compute_stream,
            depends_on=[transfer],
        )
        self.prefetcher.mark_consumed(kernel_ops[-1:] or [transfer])
        kernel_seconds = sum(t.seconds for t in terms)
        self.policy.observe_compute(kernel_seconds, self.store.window_size)

        result_bytes = len(batch.node_ids) * self.model.out_features * 4 * self.scale
        d2h = self.device.transfer_d2h(
            result_bytes,
            label=f"d2h_b{batch.batch_id}",
            depends_on=kernel_ops[-1:] or [transfer],
        )
        completion = d2h.end

        batch_record = BatchRecord(
            batch_id=batch.batch_id,
            size=batch.size,
            s_per=decision.s_per,
            formed_time=batch.formed_time,
            completion_time=completion,
            transfer_bytes=transfer_bytes,
            cache_hits=(self.reuse.cpu_hits + self.reuse.gpu_hits) - hits_before,
            cache_misses=self.reuse.misses - misses_before,
        )
        self.metrics.record_batch(batch_record)
        per_request: Dict[int, np.ndarray] = {}
        batch_nodes = batch.node_ids
        for request in batch.requests:
            rows = np.searchsorted(batch_nodes, request.node_ids)
            per_request[request.request_id] = predictions[rows]
            self.metrics.record_request(
                RequestRecord(
                    request_id=request.request_id,
                    batch_id=batch.batch_id,
                    arrival_time=request.arrival_time,
                    completion_time=completion,
                    num_nodes=len(request.node_ids),
                )
            )
        return BatchResult(
            batch_id=batch.batch_id,
            decision=decision,
            completion_time=completion,
            predictions=per_request,
        )

    def pump(self, now: Optional[float] = None, *, force: bool = False) -> List[BatchResult]:
        """Cut and execute every micro-batch due at simulated time ``now``."""
        now = self.device.elapsed_seconds() if now is None else now
        return [self._execute(batch) for batch in self.batcher.drain(now, force=force)]

    # ------------------------------------------------------------------ reporting
    def report(self) -> ServingReport:
        extras: Dict[str, float] = {}
        if self.policy.decisions:
            extras["mean_s_per"] = float(np.mean([d.s_per for d in self.policy.decisions]))
        extras["rows_patched"] = float(self.session.rows_patched)
        extras["window_overlap_rate"] = self.store.overlap_rate()
        extras["store_bytes"] = float(self.store.window_bytes())
        extras.update(self.prefetcher.stats())
        if self.feature_cache is not None:
            extras.update(self.feature_cache.stats())
        return ServingReport(
            engine="PiPAD-Serve" if self.config.enable_reuse else "Recompute-Serve",
            model=self.model.name,
            dataset=self.dataset,
            simulated_seconds=self.device.elapsed_seconds(),
            wall_seconds=self._wall_seconds(),
            metrics=self.metrics,
            breakdown=self.device.breakdown(),
            reuse_stats=self.session.stats(),
            gpu_utilization=self.device.gpu_utilization(),
            peak_memory_bytes=self.device.peak_bytes,
            extras=extras,
        )


def _build_serving_replicas(
    graph: Union[DynamicGraph, IncrementalSnapshotStore],
    model: DGNNModel,
    num_replicas: int,
    config: Optional[ServingConfig] = None,
    *,
    scale: float = 1.0,
    data: Optional[DataPipeConfig] = None,
    memory: Optional[MemoryConfig] = None,
) -> List[ServingScheduler]:
    """Wire ``num_replicas`` schedulers over one shared store (engine-internal).

    A graph gets a fresh store and names the reports after itself; a store
    passed in is shared as is, and the reports name the dataset ``serving``.
    The replicas share one request-id and one batch-id counter, so a
    request's or a batch's id is unique across them and is the engine's id.
    """
    config = config or ServingConfig()
    if isinstance(graph, IncrementalSnapshotStore):
        store = graph
        dataset = "serving"
    else:
        store = IncrementalSnapshotStore(graph, window=config.window)
        dataset = graph.name
    replicas = [
        ServingScheduler(
            model,
            store,
            config,
            scale=scale,
            dataset=dataset,
            data=data,
            memory=memory,
        )
        for _ in range(num_replicas)
    ]
    request_ids, batch_ids = itertools.count(), itertools.count()
    for replica in replicas:
        replica._request_ids = request_ids
        replica.batcher.batch_ids = batch_ids
    return replicas


def _build_serving_scheduler(
    graph: Union[DynamicGraph, IncrementalSnapshotStore],
    model: DGNNModel,
    config: Optional[ServingConfig] = None,
    **kwargs: Any,
) -> ServingScheduler:
    """Wire a store + scheduler for a trained model (engine-internal path)."""
    (replica,) = _build_serving_replicas(graph, model, 1, config, **kwargs)
    return replica
