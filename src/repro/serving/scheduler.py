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

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.datapipe import DataPipe, DataPipeConfig, PipeItem, Prefetcher
from repro.core.reuse import ReuseManager
from repro.core.tuner import DynamicTuner, FrameProfile, TuningDecision
from repro.gpu.device import OutOfMemoryError, SimulatedGPU
from repro.gpu.memory_model import feature_cache_budget_bytes
from repro.gpu.spec import GPUSpec, HostSpec, PCIeSpec
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.sliced_csr import DEFAULT_SLICE_CAPACITY
from repro.memory import (
    FeatureCache,
    MemoryConfig,
    blocks_covering,
    blocks_of_rows,
)
from repro.nn.base_model import DGNNModel
from repro.serving.batcher import InferenceRequest, MicroBatch, MicroBatcher
from repro.serving.deltas import GraphDelta, ServingEvent
from repro.serving.metrics import BatchRecord, RequestRecord, ServingMetrics, ServingReport
from repro.serving.session import InferenceSession
from repro.serving.store import DeltaReport, IncrementalSnapshotStore
from repro.telemetry.hooks import NULL_CALLBACK, TelemetryCallback
from repro.utils.validation import check_in_range, check_non_negative, check_positive

#: per-snapshot activation-memory amplification (matches the trainer's bound;
#: the tuner's forward-only entry point halves it for serving)
_ACTIVATION_FACTOR = 4.0


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving engine.

    Mirrors :class:`~repro.core.config.PiPADConfig` where the mechanisms are
    shared, plus the micro-batching and windowing knobs that only exist when
    serving online traffic.
    """

    #: number of recent snapshot versions the recurrent models consume
    window: int = 8
    #: micro-batch cut thresholds
    max_batch_requests: int = 16
    max_delay_ms: float = 2.0
    #: candidate parallelism levels for the tuner (capped at ``window``)
    s_per_candidates: Tuple[int, ...] = (2, 4, 8)
    #: force a fixed parallelism level (bypasses the tuner) when set
    fixed_s_per: Optional[int] = None
    #: serve first-layer aggregations from the reuse cache and patch them
    #: incrementally on deltas; disabling recomputes every batch in full
    enable_reuse: bool = True
    #: overlap transfer/compute/host work on separate streams
    enable_pipeline: bool = True
    use_cuda_graph: bool = True
    use_sliced_csr: bool = True
    enable_weight_reuse: bool = True
    slice_capacity: int = DEFAULT_SLICE_CAPACITY
    gpu_reuse_buffer_fraction: float = 0.25
    memory_safety_fraction: float = 0.9

    def __post_init__(self) -> None:
        check_positive("window", self.window)
        check_positive("max_batch_requests", self.max_batch_requests)
        check_non_negative("max_delay_ms", self.max_delay_ms)
        if not self.s_per_candidates:
            raise ValueError("s_per_candidates must not be empty")
        for s in self.s_per_candidates:
            check_positive("s_per candidate", s)
        if self.fixed_s_per is not None:
            check_positive("fixed_s_per", self.fixed_s_per)
        check_positive("slice_capacity", self.slice_capacity)
        check_in_range("gpu_reuse_buffer_fraction", self.gpu_reuse_buffer_fraction, 0.0, 1.0)
        check_in_range("memory_safety_fraction", self.memory_safety_fraction, 0.1, 1.0)


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
        pcie_bandwidth_gbs: float = 12.0,
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
        head = store.head
        hidden = session.model.hidden_features
        n = store.num_nodes
        overlap_rates: Dict[int, float] = {}
        for candidate in self.tuner.candidates:
            groups = session._partition_positions(candidate)  # noqa: SLF001 - shared layout
            overlap_rates[candidate] = float(
                np.mean([store.partition_decomposition(g).overlap_rate for g in groups])
            )
        features = float(head.feature_bytes())
        adjacency = float(head.adjacency.nbytes)
        activations = n * (store.feature_dim + hidden) * 4.0 * _ACTIVATION_FACTOR
        compute = self._compute_seconds_per_snapshot
        if compute is None:
            compute = 5e-4 * self.scale / max(1.0, self.scale)
        return FrameProfile(
            frame_index=batch_index,
            overlap_rate_per_candidate=overlap_rates,
            per_snapshot_compute_seconds=compute,
            per_snapshot_transfer_bytes=(features + adjacency) * self.scale,
            per_snapshot_footprint_bytes=(
                (features + adjacency + activations * store.window_size / 2.0) * self.scale
            ),
            frame_activation_bytes=(
                store.window_size * n * hidden * 4.0 * _ACTIVATION_FACTOR * self.scale
            ),
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


class ServingScheduler:
    """Drives deltas and request micro-batches through the simulated pipeline."""

    def __init__(
        self,
        model: DGNNModel,
        store: IncrementalSnapshotStore,
        config: Optional[ServingConfig] = None,
        *,
        gpu: Optional[GPUSpec] = None,
        pcie: Optional[PCIeSpec] = None,
        host: Optional[HostSpec] = None,
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
        self.device = SimulatedGPU(gpu, pcie, host, use_cuda_graph=self.config.use_cuda_graph)
        data = data or DataPipeConfig()
        if not self.config.enable_pipeline:
            # Serving's ablation switch forces fully serialized, unpinned prep.
            data = dataclasses.replace(data, prefetch_depth=0, pin_memory=False)
        self.data = data
        self.datapipe = DataPipe(
            data,
            self.device.host,
            slice_capacity=self.config.slice_capacity,
            use_sliced_csr=self.config.use_sliced_csr,
        )
        self.reuse = ReuseManager(
            self.device,
            enabled=self.config.enable_reuse,
            gpu_buffer_fraction=self.config.gpu_reuse_buffer_fraction,
        )
        self.session = InferenceSession(
            model,
            store,
            self.device,
            reuse=self.reuse,
            scale=scale,
            slice_capacity=self.config.slice_capacity,
            use_sliced_csr=self.config.use_sliced_csr,
            enable_weight_reuse=self.config.enable_weight_reuse,
            preparer=self.datapipe.preparer,
        )
        self.prefetcher = Prefetcher(
            self.datapipe, self.device, domain="serve", hooks=lambda: self.hooks
        )
        candidates = tuple(
            c for c in self.config.s_per_candidates if c <= store.window_capacity
        ) or (store.window_capacity,)
        tuner = DynamicTuner(
            self.device.spec,
            candidates,
            memory_safety_fraction=self.config.memory_safety_fraction,
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
        #: node range this scheduler's feature cache covers (fleet replicas
        #: re-scope it to their shard via :meth:`scope_feature_cache`)
        self._cache_lo = 0
        self._cache_hi = store.num_nodes
        self._check_feature_capacity()
        self.feature_cache: Optional[FeatureCache] = None
        if self.memory.feature_cache:
            self.feature_cache = self._build_feature_cache()
        # In-flight pin-stage staging buffers count against the cache's
        # pinned tier (pinned_budget_mb covers residency and staging alike).
        self.prefetcher.cache = self.feature_cache
        self.metrics = ServingMetrics()
        #: telemetry sink; the engine swaps in a live CallbackList
        self.hooks: TelemetryCallback = NULL_CALLBACK
        #: optional per-batch op injector (the fleet engine hangs its halo
        #: gather here); called with the micro-batch, returns timeline ops the
        #: batch's transfers must additionally wait on
        self.pre_batch_ops: Optional[Callable[[MicroBatch], List[object]]] = None
        self._next_request_id = 0
        self._last_delta_op = None
        #: wall clock starts at first traffic (submit/ingest/run_trace), not at
        #: construction — replica-build cost is not serving time, and the
        #: sharded/fleet engines follow the same convention
        self._wall_start: Optional[float] = None

    def _touch_wall_clock(self) -> None:
        if self._wall_start is None:
            self._wall_start = time.perf_counter()

    # ------------------------------------------------------------------ memory tiers
    def _window_feature_bytes(self) -> float:
        """Extrapolated feature bytes of a fully populated serving window."""
        return (
            float(self.store.head.feature_bytes())
            * self.store.window_capacity
            * self.scale
        )

    def _check_feature_capacity(self) -> None:
        """Refuse serving configs whose window features cannot fit uncached."""
        if self.memory.feature_cache:
            return
        nbytes = self._window_feature_bytes()
        if nbytes > self.device.spec.memory_bytes:
            raise OutOfMemoryError(
                f"serving window feature set ({nbytes / 1024**3:.1f} GiB) exceeds "
                f"{self.device.spec.name} HBM ({self.device.spec.memory_gb:.0f} GiB); "
                "enable the multi-tier feature cache (memory.feature_cache=true) "
                "to stage features through the pinned-host and spill tiers"
            )

    def _build_feature_cache(self) -> FeatureCache:
        mem = self.memory
        if mem.gpu_budget_mb is not None:
            gpu_budget = int(mem.gpu_budget_mb * 1024 * 1024)
        else:
            model_bytes = float(sum(p.data.nbytes for p in self.model.parameters()))
            hidden = self.model.hidden_features
            activation_bytes = (
                self.store.window_capacity
                * self.store.num_nodes
                * hidden
                * 4.0
                * _ACTIVATION_FACTOR
                * self.scale
            )
            gpu_budget = feature_cache_budget_bytes(
                self.device.spec,
                model_bytes=model_bytes,
                activation_bytes=activation_bytes,
                fraction=mem.gpu_budget_fraction,
            )
        cache = FeatureCache(
            gpu_budget_bytes=gpu_budget,
            pinned_budget_bytes=int(mem.pinned_budget_mb * 1024 * 1024),
            spill_budget_bytes=(
                None
                if mem.spill_budget_mb is None
                else int(mem.spill_budget_mb * 1024 * 1024)
            ),
            policy=mem.policy,
        )
        if gpu_budget > 0:
            # The GPU tier occupies real HBM alongside the reuse buffer.
            self.device.malloc("feature_cache", gpu_budget)
        return cache

    def scope_feature_cache(self, lo: int, hi: int) -> None:
        """Restrict the cache to the node range ``[lo, hi)`` (fleet shards).

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
        at = self.device.elapsed_seconds() if at is None else at
        report = self.store.apply(delta)
        self.absorb_delta(report, at=at)
        return report

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
        self._last_delta_op = self.device.host_op(
            report.apply_seconds + patch_seconds,
            label=f"delta_v{report.version}",
            stream="cpu_prep" if self.config.enable_pipeline else "default",
            not_before=at,
        )
        if touched_blocks:
            # The delta op *writes* the touched feature blocks; a gather
            # reading those blocks without an ordering path is a race the
            # happens-before checker flags.
            self._last_delta_op.attrs["hb_writes"] = list(touched_blocks)
        self.metrics.record_delta(report.num_touched)
        self.hooks.on_delta(report.version, report.num_touched, at)
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
            request_id=self._next_request_id,
            node_ids=ids,
            arrival_time=at,
        )
        self._next_request_id += 1
        self.batcher.submit(request)
        return request.request_id

    # ------------------------------------------------------------------ execution
    def _prep_snapshot_count(self) -> int:
        """Snapshots the datapipe's host stages must touch for one batch
        (cached window versions skip preparation; at least one is charged)."""
        uncached = sum(
            0 if self.reuse.has_cached(v) else 1 for v in self.store.window_versions()
        )
        return max(1, uncached)

    def _dispatch_seconds(self, num_launches: int) -> float:
        per_launch_us = (
            self.device.host.graph_dispatch_overhead_us
            if self.config.use_cuda_graph
            else self.device.host.dispatch_overhead_us
        )
        return num_launches * per_launch_us * 1e-6

    def _execute(self, batch: MicroBatch) -> BatchResult:
        decision = self.policy.choose(self.store, self.session, batch)
        versions = self.store.window_versions()
        agg_bytes = int(self.store.num_nodes * self.store.feature_dim * 4 * self.scale)
        self.reuse.plan_gpu_residency(versions, {v: agg_bytes for v in versions})

        transfer_bytes = self.session.partition_transfer_bytes(decision.s_per)
        compute_stream = "compute" if self.config.enable_pipeline else "default"

        item = PipeItem(
            label=f"b{batch.batch_id}",
            num_snapshots=self._prep_snapshot_count(),
            transfer_bytes=transfer_bytes,
        )
        if self.feature_cache is not None:
            uncached = sum(
                0 if self.reuse.has_cached(v) else 1
                for v in self.store.window_versions()
            )
            if uncached:
                plan = self.feature_cache.access(
                    self._feature_block_requests(uncached)
                )
                gather = max(
                    0.0, transfer_bytes - plan.gpu_bytes - plan.pinned_bytes
                )
                item = dataclasses.replace(
                    item,
                    transfer_bytes=max(0.0, transfer_bytes - plan.gpu_bytes),
                    gather_bytes=gather,
                    pin_bytes=gather,
                    block_keys=plan.block_keys,
                )
                self.hooks.on_cache_access(
                    item.label,
                    0,
                    plan.gpu_bytes,
                    plan.pinned_bytes,
                    plan.miss_bytes,
                    plan.gpu_hits + plan.pinned_hits + plan.spill_hits,
                    plan.misses,
                    batch.formed_time,
                    "serve",
                )
        depends_on = [] if self._last_delta_op is None else [self._last_delta_op]
        if self.pre_batch_ops is not None:
            depends_on.extend(self.pre_batch_ops(batch))
        transfer_ops = self.prefetcher.schedule(
            item,
            depends_on=depends_on or None,
            not_before=batch.formed_time,
        )
        transfer = transfer_ops[-1]

        hits_before = self.reuse.cpu_hits + self.reuse.gpu_hits
        misses_before = self.reuse.misses
        predictions, costs = self.session.predict(batch.node_ids, s_per=decision.s_per)
        self.device.host_op(
            self._dispatch_seconds(sum(c.launches for c in costs)),
            label=f"dispatch_b{batch.batch_id}",
            stream="cpu" if self.config.use_cuda_graph else compute_stream,
        )
        kernel_ops = self.device.launch_kernels(
            costs,
            label=f"serve_b{batch.batch_id}",
            stream=compute_stream,
            depends_on=[transfer],
        )
        self.prefetcher.mark_consumed(kernel_ops[-1:] or [transfer])
        kernel_seconds = sum(c.execution_seconds(self.device.spec) for c in costs)
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
        self.hooks.on_batch(batch_record)
        per_request: Dict[int, np.ndarray] = {}
        batch_nodes = batch.node_ids
        for request in batch.requests:
            rows = np.searchsorted(batch_nodes, request.node_ids)
            per_request[request.request_id] = predictions[rows]
            request_record = RequestRecord(
                request_id=request.request_id,
                batch_id=batch.batch_id,
                arrival_time=request.arrival_time,
                completion_time=completion,
                num_nodes=len(request.node_ids),
            )
            self.metrics.record_request(request_record)
            self.hooks.on_request(request_record)
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

    # ------------------------------------------------------------------ traces
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
        self.pump(max(last_time, self.device.elapsed_seconds()), force=True)
        return self.report()

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
            wall_seconds=(
                0.0 if self._wall_start is None else time.perf_counter() - self._wall_start
            ),
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
    gpu: Optional[GPUSpec] = None,
    pcie: Optional[PCIeSpec] = None,
    host: Optional[HostSpec] = None,
    scale: float = 1.0,
    data: Optional[DataPipeConfig] = None,
    memory: Optional[MemoryConfig] = None,
) -> List[ServingScheduler]:
    """Wire ``num_replicas`` schedulers over one shared store (engine-internal).

    A graph gets a fresh store and names the reports after itself; a store
    passed in is shared as is, and the reports name the dataset ``serving``.
    """
    config = config or ServingConfig()
    if isinstance(graph, IncrementalSnapshotStore):
        store = graph
        dataset = "serving"
    else:
        store = IncrementalSnapshotStore(graph, window=config.window, host=host)
        dataset = graph.name
    return [
        ServingScheduler(
            model,
            store,
            config,
            gpu=gpu,
            pcie=pcie,
            host=host,
            scale=scale,
            dataset=dataset,
            data=data,
            memory=memory,
        )
        for _ in range(num_replicas)
    ]


def _build_serving_scheduler(
    graph: Union[DynamicGraph, IncrementalSnapshotStore],
    model: DGNNModel,
    config: Optional[ServingConfig] = None,
    **kwargs: Any,
) -> ServingScheduler:
    """Wire a store + scheduler for a trained model (engine-internal path)."""
    (replica,) = _build_serving_replicas(graph, model, 1, config, **kwargs)
    return replica
