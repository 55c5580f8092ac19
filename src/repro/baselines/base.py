"""Shared DGNN training loop over the simulated device.

All trainers — the four PyGT variants here and PiPAD in
:mod:`repro.core.trainer` — derive from :class:`DGNNTrainerBase`.  The base
class owns the dataset, the model, the optimizer, the simulated GPU, the loss
definition, and the frame/epoch loops; subclasses customize

- how a frame is split into partitions,
- what data is transferred for each partition and on which stream,
- which aggregation kernels the GNN part of a partition runs through,
- whether inter-frame reuse and CUDA-Graph launching are active.

Numerics are always computed for real (the models genuinely train); the
simulated device only *accounts* for when each transfer and kernel would run
on the modelled hardware, which yields the end-to-end times, utilizations and
memory statistics the paper reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.results import EpochMetrics, TrainingResult
from repro.graph.datasets import get_dataset_spec
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.frame import DEFAULT_FRAME_SIZE, Frame, FrameIterator
from repro.graph.snapshot import GraphSnapshot
from repro.gpu.device import SimulatedGPU
from repro.gpu.kernel_cost import KernelCost
from repro.gpu.profiler import KernelCostCollector
from repro.gpu.spec import GPUSpec, HostSpec, PCIeSpec
from repro.gpu.timeline import TimelineOp
from repro.nn import build_model
from repro.nn.aggregation import AggregationProvider, DictAggregationCache, SnapshotKernels
from repro.nn.base_model import DGNNModel
from repro.nn.context import ExecutionContext
from repro.telemetry.hooks import NULL_CALLBACK, TelemetryCallback
from repro.tensor import Adam, Tensor, no_grad, observe_ops
from repro.tensor.nn.loss import mse_loss
from repro.utils.validation import check_positive


@dataclass
class TrainerConfig:
    """Configuration shared by every trainer."""

    model: str = "tgcn"
    hidden_dim: Optional[int] = None
    frame_size: int = DEFAULT_FRAME_SIZE
    epochs: int = 3
    lr: float = 1e-3
    seed: int = 0
    #: workload-extrapolation factor; ``None`` derives it from the dataset
    #: analogue (paper node count / analogue node count)
    cost_scale: Optional[float] = None
    gpu: GPUSpec = field(default_factory=GPUSpec)
    pcie: PCIeSpec = field(default_factory=PCIeSpec)
    host: HostSpec = field(default_factory=HostSpec)

    def __post_init__(self) -> None:
        if self.hidden_dim is not None:
            check_positive("hidden_dim", self.hidden_dim)
        check_positive("frame_size", self.frame_size)
        check_positive("epochs", self.epochs)
        check_positive("lr", self.lr)
        if self.cost_scale is not None:
            check_positive("cost_scale", self.cost_scale)


class DGNNTrainerBase:
    """Template-method trainer; subclasses define the execution strategy."""

    #: human-readable method name used in figures/tables
    method_name = "base"
    #: aggregation-kernel family of the one-snapshot kernel sets
    kernel_name = "coo"
    #: adjacency transfer format (``"coo"``, ``"csr"`` or ``"csr+csc"``)
    adjacency_format = "coo"
    #: whether transfers are asynchronous (separate stream, pinned memory)
    async_transfer = False
    #: whether the first-layer aggregation cache (inter-frame reuse) is active
    use_reuse = False
    #: whether kernels are launched through CUDA Graphs (reduced launch cost)
    use_cuda_graph = False

    def __init__(self, graph: DynamicGraph, config: Optional[TrainerConfig] = None) -> None:
        self.graph = graph
        self.config = config or TrainerConfig()
        self.device = SimulatedGPU(
            self.config.gpu, self.config.pcie, self.config.host, use_cuda_graph=self.use_cuda_graph
        )
        self.scale = self._resolve_scale()
        hidden = self.config.hidden_dim or self._default_hidden_dim()
        self.model: DGNNModel = build_model(
            self.config.model, graph.feature_dim, hidden, out_features=1, seed=self.config.seed
        )
        self.optimizer = Adam(self.model.parameters(), lr=self.config.lr)
        self.frames = FrameIterator(graph, frame_size=self.config.frame_size)
        self.cache = DictAggregationCache() if self.use_reuse else None
        self.context = ExecutionContext(spec=self.config.gpu, scale=self.scale)
        #: one kernel set per partition, keyed by (first timestep, size) and
        #: kept for the whole run: every frame, epoch and ``evaluate`` reuses it
        self._kernel_sets: Dict[Tuple[int, int], object] = {}
        #: telemetry sink; the engine swaps in a live CallbackList, standalone
        #: trainers keep the no-op null object
        self.hooks: TelemetryCallback = NULL_CALLBACK
        self._loss_history: List[float] = []
        self._epoch_boundaries: List[float] = [0.0]

    # ------------------------------------------------------------------ helpers
    def _sim_now(self) -> float:
        """Current simulated time hook events are stamped with.

        Group trainers override this with the group makespan so events line
        up with the multi-device clock.
        """
        return self.device.elapsed_seconds()

    def _resolve_scale(self) -> float:
        if self.config.cost_scale is not None:
            return float(self.config.cost_scale)
        dataset_name = self.graph.metadata.get("dataset")
        if dataset_name:
            spec = get_dataset_spec(str(dataset_name))
            return max(1.0, spec.paper.num_nodes / spec.config.num_nodes)
        return 1.0

    def _default_hidden_dim(self) -> int:
        hidden = self.graph.metadata.get("hidden_dim")
        if hidden:
            return int(hidden)
        # Paper §5.1: hidden 6 for 2-dim features (large graphs), 32 for 16-dim.
        return 6 if self.graph.feature_dim <= 2 else 32

    def _feature_tensor(self, snapshot: GraphSnapshot) -> Tensor:
        return Tensor(snapshot.features)

    def _target_tensor(self, snapshot: GraphSnapshot) -> Tensor:
        targets = snapshot.targets
        if targets is None:
            targets = np.zeros(snapshot.num_nodes, dtype=np.float32)
        return Tensor(targets.reshape(-1, 1))

    def _host_prep_seconds(self, snapshots: Sequence[GraphSnapshot]) -> float:
        host = self.config.host
        return len(snapshots) * host.snapshot_prep_us * 1e-6

    # ------------------------------------------------------------------ transfer planning
    def _cache_covers(self, snapshot: GraphSnapshot) -> bool:
        return self.cache is not None and self.cache.lookup(snapshot.timestep) is not None

    def _snapshot_transfer_bytes(self, snapshot: GraphSnapshot) -> float:
        """Host→device bytes needed before this snapshot can be processed."""
        cached = self._cache_covers(snapshot)
        nbytes = 0.0
        if cached:
            # The cached first-layer aggregation is shipped instead of the raw
            # features; the adjacency is only needed if deeper layers
            # re-aggregate hidden features.
            nbytes += snapshot.num_nodes * snapshot.feature_dim * 4
            if self.model.needs_topology_with_reuse:
                nbytes += snapshot.adjacency_bytes(self.adjacency_format)
        else:
            nbytes += snapshot.feature_bytes()
            nbytes += snapshot.adjacency_bytes(self.adjacency_format)
        # Per-node targets for the loss.
        nbytes += snapshot.num_nodes * 4
        return nbytes * self.scale

    # ------------------------------------------------------------------ frame execution
    def _make_partitions(self, frame: Frame) -> List[Tuple[GraphSnapshot, ...]]:
        """Split a frame into the snapshot groups processed together."""
        return [(snapshot,) for snapshot in frame]

    def _kernel_set(self, snapshots: Sequence[GraphSnapshot]):
        """Build the aggregation kernels of one partition (the canonical
        pattern: a partition of one snapshot)."""
        (snapshot,) = snapshots
        return SnapshotKernels(snapshot, self.kernel_name, self.config.gpu, self.scale)

    def _make_provider(self, snapshots: Sequence[GraphSnapshot]) -> AggregationProvider:
        key = (snapshots[0].timestep, len(snapshots))
        kernels = self._kernel_sets.get(key)
        if kernels is None:
            kernels = self._kernel_sets[key] = self._kernel_set(snapshots)
        return AggregationProvider(
            kernels,
            cache=self.cache,
            reusable_layers=self.model.reusable_aggregation_layers if self.use_reuse else (),
        )

    def _partition_context(self, snapshots: Sequence[GraphSnapshot]) -> ExecutionContext:
        return self.context

    def _host_stream(self) -> str:
        """Stream host-side data preparation runs on.

        With synchronous execution (plain PyGT) the Python loop interleaves
        host preparation, the blocking copy and the kernel launches, so host
        work serializes with device work on the default stream; asynchronous
        variants prepare data on a separate host thread/stream.
        """
        return "cpu" if self.async_transfer else "default"

    def _dispatch(
        self, device: SimulatedGPU, costs: Sequence[KernelCost], label: str
    ) -> None:
        """Charge the host-side launch cost of ``costs`` on ``device``."""
        device.dispatch(
            sum(c.launches for c in costs), label=label, stream=self._compute_stream()
        )

    def _transfer_partition(
        self,
        snapshots: Sequence[GraphSnapshot],
        depends_on: Optional[Sequence[TimelineOp]],
    ) -> List[TimelineOp]:
        """Schedule host prep + H2D transfers for one partition."""
        host_op = self.device.host_op(
            self._host_prep_seconds(snapshots), label="host_prep", stream=self._host_stream()
        )
        nbytes = sum(self._snapshot_transfer_bytes(s) for s in snapshots)
        stream = "copy" if self.async_transfer else "default"
        transfer = self.device.transfer_h2d(
            nbytes,
            label=f"h2d_t{snapshots[0].timestep}",
            stream=stream,
            pinned=self.async_transfer,
            depends_on=[host_op] if depends_on is None else [host_op, *depends_on],
        )
        return [transfer]

    def _compute_stream(self) -> str:
        return "compute" if self.async_transfer else "default"

    def _before_frame(self, frame: Frame, epoch: int) -> None:
        """Hook invoked before each frame (PiPAD plans GPU-buffer residency here)."""

    def _launch_partition_kernels(
        self,
        costs: Sequence[KernelCost],
        snapshots: Sequence[GraphSnapshot],
        transfer_ops: Sequence[TimelineOp],
        last_compute: Sequence[TimelineOp],
    ) -> Sequence[TimelineOp]:
        """Account one partition's forward kernels on the device(s).

        The group trainers override this to fan the launches out across a
        device group; the default schedules on the single simulated device.
        """
        self._dispatch(self.device, costs, "dispatch")
        return self.device.launch_kernels(
            costs,
            label=f"fwd_t{snapshots[0].timestep}",
            stream=self._compute_stream(),
            depends_on=list(transfer_ops) + list(last_compute),
        )

    def _launch_backward(
        self, costs: Sequence[KernelCost], last_compute: Sequence[TimelineOp]
    ) -> Sequence[TimelineOp]:
        """Account the frame's backward kernels (and, on a device group, the
        gradient all-reduce that follows them)."""
        self._dispatch(self.device, costs, "dispatch_bwd")
        return self.device.launch_kernels(
            costs,
            label="backward",
            stream=self._compute_stream(),
            depends_on=list(last_compute),
        )

    def _train_frame(self, frame: Frame, epoch: int) -> float:
        """Run forward/backward/update for one frame; returns the frame loss."""
        self._before_frame(frame, epoch)
        num_nodes = self.graph.num_nodes
        state = self.model.init_state(num_nodes)
        predictions: List[Tensor] = []
        last_compute: List[TimelineOp] = []
        collector = KernelCostCollector(self.config.gpu, num_nodes=num_nodes, scale=self.scale)

        for snapshots in self._make_partitions(frame):
            transfer_ops = self._transfer_partition(snapshots, depends_on=None)
            provider = self._make_provider(snapshots)
            features = [self._feature_tensor(s) for s in snapshots]
            with observe_ops(collector):
                outs, state = self.model.forward_partition(
                    provider, features, state, self._partition_context(snapshots)
                )
            costs = collector.drain()
            ops = self._launch_partition_kernels(costs, snapshots, transfer_ops, last_compute)
            last_compute = ops[-1:] if ops else last_compute
            predictions.extend(outs)

        # Frame loss on the last snapshot's prediction (forecast setting).
        target = self._target_tensor(frame[frame.size - 1])
        with observe_ops(collector):
            loss = mse_loss(predictions[-1], target)
            loss.backward()
        backward_costs = collector.drain()
        self._launch_backward(backward_costs, last_compute)
        # Optimizer step: small elementwise kernels over every parameter.
        self.optimizer.step()
        self.optimizer.zero_grad()
        self.device.transfer_d2h(4.0, label="loss_d2h")
        return float(loss.item())

    # ------------------------------------------------------------------ epochs
    def run_epoch(self, epoch: int) -> EpochMetrics:
        start = self.device.elapsed_seconds()
        start_breakdown = self.device.timeline.kind_seconds()
        hook_start = self._sim_now()
        self.hooks.on_epoch_start(epoch, hook_start)
        losses = []
        for frame in self.frames:
            frame_start = self._sim_now()
            loss = self._train_frame(frame, epoch)
            self.hooks.on_frame(frame.index, epoch, frame_start, self._sim_now(), loss)
            losses.append(loss)
        end = self.device.elapsed_seconds()
        end_breakdown = self.device.timeline.kind_seconds()
        metrics = EpochMetrics(
            epoch=epoch,
            simulated_seconds=end - start,
            loss=float(np.mean(losses)) if losses else 0.0,
            transfer_seconds=end_breakdown.get("h2d", 0.0) - start_breakdown.get("h2d", 0.0),
            compute_seconds=end_breakdown.get("kernel", 0.0) - start_breakdown.get("kernel", 0.0),
            cpu_seconds=end_breakdown.get("cpu", 0.0) - start_breakdown.get("cpu", 0.0),
            cache_hits=0,
            cache_misses=0,
        )
        self._loss_history.append(metrics.loss)
        self._epoch_boundaries.append(end)
        self.hooks.on_epoch_end(epoch, metrics, hook_start, self._sim_now())
        return metrics

    def train(self, epochs: Optional[int] = None) -> TrainingResult:
        """Run the full training and return the collected metrics."""
        epochs = epochs or self.config.epochs
        wall_start = time.perf_counter()
        epoch_metrics = [self.run_epoch(e) for e in range(epochs)]
        wall_seconds = time.perf_counter() - wall_start

        breakdown = self.device.breakdown()
        memory_stats = self.device.memory_statistics()
        return TrainingResult(
            method=self.method_name,
            model=self.config.model,
            dataset=self.graph.name,
            epochs=epochs,
            simulated_seconds=self.device.elapsed_seconds(),
            wall_seconds=wall_seconds,
            final_loss=epoch_metrics[-1].loss if epoch_metrics else 0.0,
            epoch_metrics=epoch_metrics,
            breakdown=breakdown,
            category_seconds=self.device.category_seconds(),
            gpu_utilization=self.device.gpu_utilization(),
            sm_utilization=self.device.sm_utilization(),
            memory_requests=memory_stats["requests"],
            memory_transactions=memory_stats["transactions"],
            avg_thread_ratio=self.device.average_thread_ratio(),
            peak_memory_bytes=self.device.peak_bytes,
            kernel_launches=sum(s.launches for s in self.device.kernel_stats.values()),
            extras=self._extra_metrics(),
        )

    def _extra_metrics(self) -> Dict[str, float]:
        return {}

    # ------------------------------------------------------------------ evaluation
    def evaluate(self) -> float:
        """Inference-only MSE on the last frame (no gradient, no device accounting)."""
        frame = self.frames.frame(self.frames.num_frames - 1)
        state = self.model.init_state(self.graph.num_nodes)
        predictions: List[Tensor] = []
        with no_grad():
            for snapshots in self._make_partitions(frame):
                provider = self._make_provider(snapshots)
                features = [self._feature_tensor(s) for s in snapshots]
                outs, state = self.model.forward_partition(
                    provider, features, state, self._partition_context(snapshots)
                )
                predictions.extend(outs)
            target = self._target_tensor(frame[frame.size - 1])
            loss = mse_loss(predictions[-1], target)
        return float(loss.item())
