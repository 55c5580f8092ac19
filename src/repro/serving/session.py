"""Forward-only inference over the serving window.

The session owns a trained DGNN model and turns the store's window into
predictions.  It is the serving-side twin of the trainer's frame execution:
partitions of the window run through the trainer's own
:class:`~repro.nn.aggregation.AggregationProvider` class against the
incrementally maintained overlap decomposition, first-layer aggregations are
served from the :class:`~repro.core.reuse.ReuseManager`, and kernel costs are
collected so the scheduler can account them on the simulated device.

The paper's reuse insight (Fig. 7 ❸: a first-layer aggregation depends only
on topology + raw features) becomes the serving fast path: when a delta
arrives, only the delta-touched rows of the head version's aggregation are
recomputed from the parent version's cached result — the other ~90+ % of
rows carry over untouched.

Per window version group, the store keeps the group's overlap
decomposition as edge keys, its :class:`~repro.core.data_prep.PartitionData`
(transfer sizes counted from the keys) and an initially empty
:class:`~repro.core.parallel_gnn.PartitionKernels`.  CSRs, SciPy matrices
and sliced CSRs of a group's parts are built only when a forward pass
computes over them; after a delta the window is re-derived as keys alone.

The same insight applies to the forward pass itself.  Its outputs — the
head predictions, the kernel costs and the reuse-cache traffic — depend
only on the window versions, the parallelism and the exact contents of the
replica's cached aggregations, so a fleet runs it once per distinct input
through the shared store and every replica replays the recorded cache
traffic against its own :class:`~repro.core.reuse.ReuseManager`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.data_prep import DataPreparer, PartitionData, transfer_bytes
from repro.core.parallel_gnn import PartitionKernels
from repro.core.reuse import ReuseManager
from repro.gpu.device import SimulatedGPU
from repro.gpu.kernel_cost import KernelCost
from repro.gpu.profiler import KernelCostCollector
from repro.nn.aggregation import AggregationProvider
from repro.nn.base_model import DGNNModel
from repro.nn.context import ExecutionContext
from repro.serving.store import DeltaReport, IncrementalSnapshotStore
from repro.tensor import observe_ops
from repro.tensor.tensor import Tensor


class _RecordingCache:
    """The reuse cache a shared forward pass runs against.

    Answers lookups from one replica's cached aggregations and from what
    the pass stores itself, and logs every call as ``(timestep, stored)``:
    ``stored`` is ``None`` for a lookup and the stored array for a store.
    """

    def __init__(self, cached: Dict[int, np.ndarray]) -> None:
        self._values = cached
        self.log: List[Tuple[int, Optional[np.ndarray]]] = []

    def lookup(self, timestep: int) -> Optional[np.ndarray]:
        self.log.append((timestep, None))
        return self._values.get(timestep)

    def store(self, timestep: int, value: np.ndarray) -> None:
        self.log.append((timestep, value))
        self._values[timestep] = value


class InferenceSession:
    """Runs a trained model forward over the store's serving window."""

    def __init__(
        self,
        model: DGNNModel,
        store: IncrementalSnapshotStore,
        device: SimulatedGPU,
        *,
        reuse: ReuseManager,
        preparer: DataPreparer,
        scale: float = 1.0,
    ) -> None:
        self.model = model
        self.store = store
        self.device = device
        self.reuse = reuse
        # The scheduler passes its datapipe's preparer so both share one cache.
        self.preparer = preparer
        self.scale = scale
        self.context = ExecutionContext(spec=device.spec, scale=scale)
        self.rows_patched = 0
        self.full_recomputes = 0

    # ------------------------------------------------------------------ deltas
    def refresh(self, report: DeltaReport) -> float:
        """Maintain the reuse cache after a delta; returns analytic host seconds.

        Evicted versions are invalidated outright.  The new head version's
        first-layer aggregation is derived from the parent version's cached
        result by recomputing only the delta-touched rows; if the parent was
        never cached (cold start, reuse disabled) the head stays uncached and
        the next forward pass computes it in full.  The recomputed rows
        depend on the head version alone, so the store computes them once
        for every replica.
        """
        if report.evicted_version is not None:
            self.reuse.invalidate([report.evicted_version])
        if not self.reuse.enabled:
            return 0.0
        parent = self.reuse.peek(report.parent_version)
        if parent is None:
            self.full_recomputes += 1
            return 0.0
        patched = np.array(parent, copy=True)
        touched = report.touched_rows
        if len(touched):
            patched[touched] = self.store.shared(
                (report.version,), "patched_rows", lambda: self._patched_rows(report)
            )
            self.rows_patched += len(touched)
        self.reuse.store(report.version, patched)
        # Patching touched rows is a small gather/SpMM on the host copy.
        flops = 2.0 * max(1, len(touched)) * self.store.feature_dim
        return flops * 1e-9  # ~1 GFLOP/s conservative host estimate

    def _patched_rows(self, report: DeltaReport) -> np.ndarray:
        """``(X[t] + A[t]·X) / (deg[t] + 1)`` of the head version's touched rows.

        ``A[t]`` is a SciPy CSR of the touched rows alone, each row's entries
        in their stored order, so the products are those of the whole
        adjacency's rows without converting it.
        """
        head = self.store.snapshot(report.version)
        adjacency = head.adjacency
        touched = report.touched_rows
        starts = adjacency.indptr[touched]
        degree = adjacency.indptr[touched + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(degree)))
        entries = np.repeat(starts - indptr[:-1], degree) + np.arange(indptr[-1])
        rows = sp.csr_matrix(
            (adjacency.data[entries], adjacency.indices[entries], indptr),
            shape=(len(touched), adjacency.num_cols),
        )
        sub = rows @ head.features
        return (head.features[touched] + sub) / (degree.astype(np.float32) + 1.0)[:, None]

    # ------------------------------------------------------------------ providers
    def partitions_for(self, s_per: int) -> List[PartitionData]:
        """Prepared partition data for the current window at ``s_per``.

        Built from the store's incrementally refined decompositions, which
        are edge keys (transfer sizes are counted from them, no CSR built),
        and shared through the store by every replica until a member
        version leaves the window (used by kernel construction and
        transfer-size accounting).
        """
        preparer = self.preparer
        snapshots = self.store.window_snapshots()
        return [
            self.store.shared(
                self.store.versions_at(positions),
                ("partition", preparer.use_sliced_csr),
                lambda: preparer.prepare_from_decomposition(
                    [snapshots[p] for p in positions],
                    self.store.partition_decomposition(positions),
                ),
            )
            for positions in self.store.partition_positions(s_per)
        ]

    def kernels_for(self, s_per: int) -> List[PartitionKernels]:
        """Aggregation kernels of the current window's partitions at ``s_per``.

        One set per version group, shared through the store by every replica
        until a member version leaves the window.  A set is empty when made:
        the forward pass builds a kernel (and its CSR) only for a part it
        computes, so a group served from the reuse cache builds none.
        """
        spec, scale = self.device.spec, self.scale
        return [
            self.store.shared(
                tuple(s.timestep for s in partition.snapshots),
                ("kernels", spec, scale),
                lambda: PartitionKernels(partition, spec, scale),
            )
            for partition in self.partitions_for(s_per)
        ]

    # ------------------------------------------------------------------ prediction
    def predict(
        self, node_ids: np.ndarray, *, s_per: int = 1
    ) -> Tuple[np.ndarray, List[KernelCost]]:
        """Predict for the given nodes at the head version.

        Runs the recurrent model forward-only across the whole window (the
        hidden state needs the history), reads the head-snapshot prediction
        rows for ``node_ids`` and returns them together with the kernel costs
        the scheduler should account on the device.

        The pass is a function of the window versions, ``s_per`` and the
        exact bytes of this replica's cached aggregations of those versions
        (patched and computed caches differ in their last bits), so it runs
        once per distinct input through the shared store.  Every caller
        replays the pass's reuse-cache calls against its own
        :class:`~repro.core.reuse.ReuseManager`: hit and miss counts and
        the stored aggregations are the same as if it had run the pass.
        """
        versions = tuple(self.store.window_versions())
        reuse = self.reuse
        cached = {v: reuse.peek(v) for v in versions}
        kind = (
            "forward",
            self.model,
            self.device.spec,
            self.scale,
            s_per,
            reuse.enabled,
            tuple(None if a is None else a.tobytes() for a in cached.values()),
        )
        head, costs, log = self.store.shared(
            versions, kind, lambda: self._forward(s_per, cached)
        )
        for timestep, stored in log:
            if stored is None:
                reuse.lookup(timestep)
            else:
                reuse.store(timestep, stored)
        return head[np.asarray(node_ids, dtype=np.int64)], list(costs)

    def _forward(self, s_per: int, cached: Dict[int, Optional[np.ndarray]]) -> tuple:
        """Run the model over the window against ``cached`` aggregations.

        Returns the head predictions of every node, the kernel costs and
        the log of the pass's reuse-cache calls.
        """
        cache = None
        if self.reuse.enabled:
            cache = _RecordingCache({v: a for v, a in cached.items() if a is not None})
        reusable = self.model.reusable_aggregation_layers if cache is not None else ()
        providers = [
            AggregationProvider(kernels, cache=cache, reusable_layers=reusable)
            for kernels in self.kernels_for(s_per)
        ]
        snapshots = self.store.window_snapshots()
        positions = self.store.partition_positions(s_per)
        feature_groups: List[List[Tensor]] = [
            [Tensor(snapshots[p].features) for p in group] for group in positions
        ]
        collector = KernelCostCollector(
            self.device.spec, num_nodes=self.store.num_nodes, scale=self.scale
        )
        ctx = self.context
        if not self.model.evolves_weights:
            ctx = ctx.with_reuse_group(max(len(g) for g in positions))
        with observe_ops(collector):
            predictions = self.model.predict_frame(
                providers, feature_groups, self.store.num_nodes, ctx
            )
        log = tuple(cache.log) if cache is not None else ()
        # Every replica that replays the log caches these very arrays.
        for _, stored in log:
            if stored is not None:
                stored.flags.writeable = False
        return predictions[-1].data, tuple(collector.drain()), log

    # ------------------------------------------------------------------ transfer planning
    def partition_transfer_bytes(self, s_per: int) -> float:
        """Host→device bytes a batch needs given current cache/residency
        state: the trainer's partition rule without loss targets."""
        nbytes = transfer_bytes(
            self.partitions_for(s_per),
            self.reuse,
            topology_with_reuse=self.model.needs_topology_with_reuse,
            target_bytes=0,
        )
        return nbytes * self.scale

    def stats(self) -> Dict[str, float]:
        data = dict(self.reuse.stats())
        data["rows_patched"] = float(self.rows_patched)
        data["full_recomputes"] = float(self.full_recomputes)
        return data
