"""The PiPAD trainer: pipelined, partition-parallel DGNN training (§4).

The trainer extends the shared training loop with PiPAD's four mechanisms:

1. *Overlap-aware data organization* — snapshots are shipped per partition as
   one sliced-CSR overlap adjacency plus per-snapshot exclusives
   (:class:`~repro.core.data_prep.DataPreparer`,
   :class:`~repro.core.slicer.GraphSlicer`).
2. *Intra-frame parallelism* — the GNN part of a partition aggregates over
   its :class:`~repro.core.parallel_gnn.PartitionKernels`, with
   locality-optimized weight reuse in the update GEMM and CUDA-Graph
   launches.
3. *Pipeline execution* — CPU preparation, PCIe transfers and kernels run on
   separate streams of the simulated device so partition ``k+1``'s transfer
   hides behind partition ``k``'s compute.
4. *Inter-frame reuse and dynamic tuning* — first-layer aggregation results
   are cached on the host and (capacity permitting) on the device
   (:class:`~repro.nn.aggregation.ReuseManager`), and the per-frame parallelism
   level is chosen by the :class:`~repro.core.tuner.DynamicTuner` from the
   offline kernel analysis plus statistics gathered in the preparing epochs.

Epoch 0..``preparing_epochs-1`` run in the canonical one-snapshot manner
(while populating caches and statistics); subsequent epochs run the
partition-parallel schedule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import DGNNTrainerBase, TrainerConfig
from repro.baselines.results import EpochMetrics
from repro.core.config import PiPADConfig
from repro.core.datapipe import (
    DataPipe,
    DataPipeConfig,
    PipeItem,
    Prefetcher,
    apply_cache_plan,
)
from repro.core.parallel_gnn import PartitionKernels
from repro.core.slicer import GraphSlicer
from repro.core.tuner import (
    DynamicTuner,
    FrameProfile,
    TuningDecision,
    activation_bytes,
    capped_candidates,
)
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.frame import Frame
from repro.graph.snapshot import GraphSnapshot
from repro.gpu.device import SimulatedGPU
from repro.gpu.timeline import TimelineOp
from repro.memory import (
    AccessPlan,
    FeatureCache,
    MemoryConfig,
    aggregate_cache_stats,
    blocks_covering,
    build_feature_cache,
)
from repro.nn.context import ExecutionContext


class PiPADTrainer(DGNNTrainerBase):
    """End-to-end PiPAD training on the simulated device."""

    method_name = "PiPAD"
    async_transfer = True
    use_reuse = True
    use_cuda_graph = True

    def __init__(
        self,
        graph: DynamicGraph,
        config: Optional[TrainerConfig] = None,
        pipad_config: Optional[PiPADConfig] = None,
        data_config: Optional[DataPipeConfig] = None,
        memory_config: Optional[MemoryConfig] = None,
    ) -> None:
        self.pipad = pipad_config or PiPADConfig()
        self.memory = memory_config or MemoryConfig()
        # Mirror the ablation switches onto the knobs the base class reads.
        self.use_reuse = self.pipad.enable_inter_frame_reuse
        self.async_transfer = self.pipad.enable_pipeline
        self.use_cuda_graph = self.pipad.use_cuda_graph
        super().__init__(graph, config)

        self.slicer = GraphSlicer(host=self.config.host)
        self.data = (data_config or DataPipeConfig()).for_pipeline(self.pipad.enable_pipeline)
        self.datapipe = DataPipe(
            self.data, self.config.host, use_sliced_csr=self.pipad.use_sliced_csr
        )
        self.preparer = self.datapipe.preparer
        self.prefetcher = Prefetcher(self.datapipe, self.device)
        if self.pipad.fixed_s_per is not None:
            candidates: Tuple[int, ...] = (self.pipad.fixed_s_per,)
        else:
            candidates = capped_candidates(self.graph.metadata.get("max_s_per"))
        self.tuner = DynamicTuner(self.config.gpu, candidates, feature_dim=self.graph.feature_dim)
        self._frame_s_per: Dict[int, int] = {}
        self._tuning_decisions: List[TuningDecision] = []
        self._preparing = self.pipad.preparing_epochs > 0
        self._preprocessed = False
        self._epochs_run = 0
        self._hidden_dim = self.model.hidden_features
        self.feature_cache: Optional[FeatureCache] = self._build_feature_cache(self.device)
        #: one cache per device; distributed/pipeline subclasses append one
        #: per extra shard/stage.  Empty when the cache is disabled.
        self.feature_caches: List[FeatureCache] = (
            [] if self.feature_cache is None else [self.feature_cache]
        )
        # The pin stage's staging buffers are pinned memory too: charge them
        # against the cache's pinned tier instead of budgeting them separately.
        self.prefetcher.cache = self.feature_cache

    # ------------------------------------------------------------------ memory tiers
    def _feature_shards(self) -> int:
        """Devices the frame's feature working set is split across (1 here)."""
        return 1

    def _build_feature_cache(self, device: SimulatedGPU) -> Optional[FeatureCache]:
        """One device's cache (``None`` uncached, once the frame's feature
        working set is checked against its HBM)."""
        shards = float(self._feature_shards())
        features = float(np.mean([s.feature_bytes() for s in self.graph.snapshots]))
        frame_activation = activation_bytes(
            self.config.frame_size, self.graph.num_nodes, self._hidden_dim, self.scale
        )
        return build_feature_cache(
            device, self.memory,
            feature_bytes=features * self.config.frame_size * self.scale / shards,
            feature_set="frame feature working set per device",
            parameters=self.model.parameters(),
            activation_bytes=frame_activation / shards,
        )

    def _feature_block_requests(
        self, snapshots: Sequence[GraphSnapshot], lo: int, hi: int
    ) -> List[Tuple[Tuple[int, int], float]]:
        """Cache keys + bytes for the feature rows a partition will read.

        One key per (timestep, node block): training features are distinct
        per snapshot.  The inter-frame reuse cache discounts the *bytes* a
        partition ships independently (``_partition_transfer_bytes``); the
        tier plan is applied on top and clamps at zero, so the two
        discounts never drive a stage's bytes negative.
        """
        row_bytes = self.graph.feature_dim * 4.0 * self.scale
        requests: List[Tuple[Tuple[int, int], float]] = []
        for snapshot in snapshots:
            for block, b_lo, b_hi in blocks_covering(lo, hi, self.memory.block_rows):
                requests.append(((snapshot.timestep, block), (b_hi - b_lo) * row_bytes))
        return requests

    def _cache_plan(
        self, snapshots: Sequence[GraphSnapshot], *, index: int, lo: int, hi: int
    ) -> AccessPlan:
        return self.feature_caches[index].access(
            self._feature_block_requests(snapshots, lo, hi)
        )

    # ------------------------------------------------------------------ preprocessing & tuning
    def _measured_per_snapshot_compute(self) -> Optional[float]:
        """Average per-snapshot kernel seconds observed in the preparing
        epochs; ``None`` when none ran."""
        total = sum(stats.seconds for stats in self.device.kernel_stats.values())
        if total <= 0:
            return None
        return total / (max(1, self._epochs_run) * self.frames.num_frames * self.config.frame_size)

    def _run_preprocessing(self) -> None:
        """Graph slicing, overlap extraction and per-frame tuning (one-off)."""
        # Slicing every snapshot once (host work, overlapped with training).
        slicing_seconds = sum(
            self.slicer.conversion_seconds(s.adjacency) for s in self.graph.snapshots
        )
        self.slicer.total_host_seconds += slicing_seconds
        self.device.host_op(slicing_seconds, label="graph_slicing", stream="cpu_prep")

        snapshots = self.graph.snapshots
        sizes = dict(
            feature_bytes=float(np.mean([s.feature_bytes() for s in snapshots])),
            adjacency_bytes=float(np.mean([s.adjacency.nbytes for s in snapshots])),
            num_nodes=self.graph.num_nodes,
            feature_dim=self.graph.feature_dim,
            hidden_dim=self._hidden_dim,
            snapshots=self.config.frame_size,
            scale=self.scale,
            compute_seconds=self._measured_per_snapshot_compute(),
        )

        for frame in self.frames:
            overlap_rates: Dict[int, float] = {}
            for candidate in self.tuner.candidates:
                before = self.preparer.total_extraction_seconds
                partitions = self.preparer.prepare_frame(list(frame.snapshots), candidate)
                extraction_delta = self.preparer.total_extraction_seconds - before
                if extraction_delta > 0:
                    self.device.host_op(
                        extraction_delta,
                        label=f"overlap_extraction_f{frame.index}_s{candidate}",
                        stream="cpu_prep",
                    )
                overlap_rates[candidate] = float(
                    np.mean([p.overlap_rate for p in partitions])
                )
            profile = FrameProfile.sized(frame.index, overlap_rates, **sizes)
            decision = self.tuner.decide(
                profile, pcie_bandwidth_gbs=self.config.pcie.bandwidth_gbs
            )
            if self.pipad.fixed_s_per is not None:
                decision = TuningDecision(
                    frame_index=frame.index,
                    s_per=self.pipad.fixed_s_per,
                    estimated_speedup=decision.estimated_speedup,
                    overlap_rate=decision.overlap_rate,
                    reason="fixed by configuration",
                )
            self._frame_s_per[frame.index] = decision.s_per
            self._tuning_decisions.append(decision)
        self._preprocessed = True
        # The canonical per-snapshot kernel sets served the preparing epochs only.
        self._kernel_sets.clear()

    # ------------------------------------------------------------------ frame execution overrides
    def _make_partitions(self, frame: Frame) -> List[Tuple[GraphSnapshot, ...]]:
        if self._preparing:
            return super()._make_partitions(frame)
        s_per = self._frame_s_per.get(frame.index, self.tuner.candidates[0])
        return [
            tuple(frame.snapshots[start : start + s_per])
            for start in range(0, frame.size, s_per)
        ]

    def _kernel_set(self, snapshots: Sequence[GraphSnapshot]):
        if self._preparing:
            return super()._kernel_set(snapshots)
        return PartitionKernels(
            self.datapipe.partition(snapshots),
            self.config.gpu,
            self.scale,
            use_sliced_csr=self.pipad.use_sliced_csr,
        )

    def _partition_context(self, snapshots: Sequence[GraphSnapshot]) -> ExecutionContext:
        if self._preparing:
            return self.context
        reuse_group = 1
        if self.pipad.enable_weight_reuse and not self.model.evolves_weights:
            reuse_group = len(snapshots)
        return self.context.with_reuse_group(reuse_group)

    def _before_frame(self, frame: Frame, epoch: int) -> None:
        if self._preparing:
            return
        # Keep the aggregation results this frame will consume resident on the
        # GPU-side buffer (capacity permitting), in use order.
        agg_bytes = int(
            self.graph.num_nodes * self.graph.feature_dim * 4 * self.scale
        )
        timesteps = [s.timestep for s in frame.snapshots]
        self.reuse.plan_gpu_residency(timesteps, {t: agg_bytes for t in timesteps})

    def _transfer_partition(
        self,
        snapshots: Sequence[GraphSnapshot],
        depends_on: Optional[Sequence[TimelineOp]],
    ) -> List[TimelineOp]:
        if self._preparing:
            return super()._transfer_partition(snapshots, depends_on)
        item = PipeItem(
            label=f"p{snapshots[0].timestep}",
            num_snapshots=len(snapshots),
            transfer_bytes=self._partition_transfer_bytes(snapshots),
        )
        if self.feature_cache is not None:
            plan = self._cache_plan(snapshots, index=0, lo=0, hi=self.graph.num_nodes)
            item = apply_cache_plan(item, plan)
        return self.prefetcher.schedule(item, depends_on=depends_on)

    def _launch_partition_kernels(
        self,
        costs,
        snapshots: Sequence[GraphSnapshot],
        transfer_ops: Sequence[TimelineOp],
        last_compute: Sequence[TimelineOp],
    ) -> Sequence[TimelineOp]:
        ops = super()._launch_partition_kernels(
            costs, snapshots, transfer_ops, last_compute
        )
        if not self._preparing:
            # The last kernel of the partition is what frees the prefetcher's
            # depth slot: item k+depth+1's host prep may not start before it.
            self.prefetcher.mark_consumed(ops)
        return ops

    def _compute_stream(self) -> str:
        if self._preparing:
            return super()._compute_stream()
        return "compute" if self.pipad.enable_pipeline else "default"

    # ------------------------------------------------------------------ epochs
    def run_epoch(self, epoch: int) -> EpochMetrics:
        was_preparing = self._preparing
        self._preparing = self._epochs_run < self.pipad.preparing_epochs
        if self._preparing and self._epochs_run == 0:
            self.hooks.on_phase_start("prepare", self._sim_now())
        if not self._preparing and not self._preprocessed:
            self._run_preprocessing()
            if was_preparing and self.pipad.preparing_epochs > 0:
                self.hooks.on_phase_end("prepare", self._sim_now())
        metrics = super().run_epoch(epoch)
        self._epochs_run += 1
        return metrics

    def _extra_metrics(self) -> Dict[str, float]:
        extras: Dict[str, float] = dict(self.reuse.stats()) if self.reuse.enabled else {}
        extras["slicing_host_seconds"] = self.slicer.total_host_seconds
        extras["extraction_host_seconds"] = self.preparer.total_extraction_seconds
        extras.update(self.prefetcher.stats())
        if self.feature_caches:
            extras.update(
                aggregate_cache_stats([c.stats() for c in self.feature_caches])
            )
        if self._tuning_decisions:
            extras["mean_s_per"] = float(np.mean([d.s_per for d in self._tuning_decisions]))
            extras["mean_estimated_speedup"] = float(
                np.mean([d.estimated_speedup for d in self._tuning_decisions])
            )
        return extras

    # ------------------------------------------------------------------ introspection
    @property
    def tuning_decisions(self) -> List[TuningDecision]:
        return list(self._tuning_decisions)

    def chosen_s_per(self) -> Dict[int, int]:
        return dict(self._frame_s_per)
