"""Incremental snapshot store: the serving-side graph state.

The store owns the *serving window* — the last ``W`` snapshot versions the
recurrent DGNN models consume — and applies :class:`~repro.serving.deltas.
GraphDelta` updates to produce new head versions.  Two pieces of paper
machinery are reused instead of recomputed from scratch on every delta:

- the overlap/exclusive decomposition of the window is maintained by an
  :class:`~repro.graph.overlap.IncrementalOverlapTracker` (per-edge
  membership counts, §4.1's decomposition without the O(total nnz)
  re-intersection), and
- partition-level groups for the parallel GNN are refined from that window
  decomposition (:func:`~repro.graph.overlap.refine_overlap`) by
  intersecting only the small exclusive sets.

Both stay edge keys: a part's CSR is built only when an aggregation kernel
over it is.

Everything derived from the window is a function of the snapshot versions
it covers: refinements (which also give the tuner its per-group overlap
rates), and what the inference sessions build through
:meth:`IncrementalSnapshotStore.shared` (partition data, aggregation
kernels, the rows a delta patches, and the forward pass itself, keyed also
by the bytes of the caller's cached aggregations).  Each piece
is built once and read by every replica sharing the store; it is dropped
when one of its versions leaves the window.

Each applied delta yields a :class:`DeltaReport` naming the new and evicted
versions plus the *touched rows* — exactly the aggregation rows the
inference session must recompute, everything else stays cache-valid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.csr import CSRMatrix
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.keys import difference, intersect, union, unique
from repro.graph.overlap import IncrementalOverlapTracker, SnapshotOverlap, refine_overlap
from repro.graph.snapshot import GraphSnapshot
from repro.gpu.spec import HostSpec
from repro.serving.deltas import GraphDelta
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DeltaReport:
    """Outcome of applying one delta to the store."""

    version: int
    parent_version: int
    evicted_version: Optional[int]
    #: rows whose first-layer aggregation changed (edge endpoints' source
    #: rows, updated nodes and their in-neighbors)
    touched_rows: np.ndarray
    num_added: int
    num_removed: int
    num_feature_updates: int
    #: analytic host seconds spent applying the delta (key merge + tracker)
    apply_seconds: float

    @property
    def num_touched(self) -> int:
        return int(len(self.touched_rows))


class IncrementalSnapshotStore:
    """Applies deltas to a head snapshot and maintains the serving window."""

    def __init__(
        self,
        initial: Union[DynamicGraph, GraphSnapshot, Sequence[GraphSnapshot]],
        *,
        window: int = 8,
    ) -> None:
        check_positive("window", window)
        if isinstance(initial, DynamicGraph):
            seeds = list(initial.snapshots[-window:])
        elif isinstance(initial, GraphSnapshot):
            seeds = [initial]
        else:
            seeds = list(initial)
        if not seeds:
            raise ValueError("store needs at least one seed snapshot")
        shape = seeds[0].adjacency.shape
        for snap in seeds:
            if snap.adjacency.shape != shape:
                raise ValueError("all seed snapshots must share the same shape")
        self.window_capacity = window
        self.host = HostSpec()
        self._tracker = IncrementalOverlapTracker(shape, window)
        self._window: Deque[GraphSnapshot] = deque()
        self._keys: Dict[int, np.ndarray] = {}
        #: state derived from a version group alone, keyed ``(versions, kind)``
        #: (see :meth:`shared`); dropped when one of its versions is evicted
        self._shared: Dict[Tuple[Tuple[int, ...], Hashable], Any] = {}
        self._version = seeds[0].timestep - 1
        for snap in seeds:
            version = max(self._version + 1, snap.timestep)
            if snap.timestep != version:
                snap = GraphSnapshot(
                    adjacency=snap.adjacency,
                    features=snap.features,
                    targets=snap.targets,
                    timestep=version,
                )
            keys = snap.adjacency.edge_keys()
            self._tracker.push(version, keys)
            self._window.append(snap)
            if len(self._window) > window:
                evicted = self._window.popleft()
                del self._keys[evicted.timestep]
            self._keys[version] = keys
            self._version = version
        self.deltas_applied = 0

    # ------------------------------------------------------------------ views
    @property
    def num_nodes(self) -> int:
        return self._window[-1].num_nodes

    @property
    def feature_dim(self) -> int:
        return self._window[-1].feature_dim

    @property
    def version(self) -> int:
        """Version id of the head snapshot (monotonically increasing)."""
        return self._version

    @property
    def head(self) -> GraphSnapshot:
        return self._window[-1]

    @property
    def window_size(self) -> int:
        return len(self._window)

    def window_snapshots(self) -> List[GraphSnapshot]:
        """The serving window, oldest first (the model's input frame)."""
        return list(self._window)

    def window_versions(self) -> List[int]:
        return [s.timestep for s in self._window]

    def window_bytes(self) -> int:
        """Bytes held by the serving window (features + adjacency per version).

        This is the store-memory footprint one full replica pays; the fleet
        engine reports the node-sharded fraction of it per shard.
        """
        return sum(
            int(snap.feature_bytes()) + int(snap.adjacency.nbytes)
            for snap in self._window
        )

    def snapshot(self, version: int) -> GraphSnapshot:
        for snap in self._window:
            if snap.timestep == version:
                return snap
        raise KeyError(f"version {version} not in window {self.window_versions()}")

    # ------------------------------------------------------------------ overlap
    def decomposition(self) -> SnapshotOverlap:
        """Incrementally maintained decomposition of the whole window."""
        return self._tracker.decomposition()

    def overlap_rate(self) -> float:
        return self._tracker.overlap_rate()

    def partition_positions(self, s_per: int) -> List[List[int]]:
        """Window positions (oldest = 0) of each partition at parallelism ``s_per``."""
        window = self.window_size
        s_per = max(1, min(s_per, window))
        return [list(range(start, min(start + s_per, window))) for start in range(0, window, s_per)]

    def versions_at(self, positions: Sequence[int]) -> Tuple[int, ...]:
        """Snapshot versions at the given window positions."""
        return tuple(self._window[p].timestep for p in positions)

    def shared(self, versions: Tuple[int, ...], kind: Hashable, build: Callable[[], Any]) -> Any:
        """State that depends only on the snapshot ``versions``, built once.

        Every reader of the store (each replica of a serving fleet) gets the
        same object.  ``kind`` names what ``build`` makes, including any
        setting it depends on.  The entry lives until one of ``versions``
        leaves the window, so the cache never outgrows the window's groups.
        """
        key = (versions, kind)
        try:
            return self._shared[key]
        except KeyError:
            value = self._shared[key] = build()
            return value

    def partition_decomposition(self, positions: Sequence[int]) -> SnapshotOverlap:
        """Decomposition of a window subgroup (by position, oldest = 0).

        Refinements are cached by the member versions until one of them
        leaves the window: steady request traffic keeps asking for the same
        subgroups, and after a delta the same versions may regroup.
        """
        if list(positions) == list(range(len(self._window))):
            return self.decomposition()
        return self.shared(
            self.versions_at(positions),
            "decomposition",
            lambda: refine_overlap(self.decomposition(), positions),
        )

    # ------------------------------------------------------------------ deltas
    def _touched_rows(
        self,
        delta: GraphDelta,
        added_keys: np.ndarray,
        removed_keys: np.ndarray,
        new_keys: np.ndarray,
    ) -> np.ndarray:
        """Rows whose first-layer aggregation differs between head versions.

        ``agg[u] = (X[u] + Σ_v A[u,v]·X[v]) / (deg(u)+1)``, so a row is
        touched when one of its out-edges changed, its own features changed,
        or the features of one of its out-neighbors changed.
        """
        n = self.num_nodes
        touched = [added_keys // n, removed_keys // n]
        if delta.feature_updates:
            updated = np.fromiter(delta.feature_updates, dtype=np.int64)
            touched.append(updated)
            # In-neighbors of updated nodes: rows u with a (u, v) edge.
            rows, cols = np.divmod(new_keys, n)
            touched.append(rows[np.isin(cols, updated)])
        return unique(np.concatenate(touched)) if touched else np.zeros(0, dtype=np.int64)

    def _apply_seconds(self, delta: GraphDelta, new_nnz: int, touched: int) -> float:
        """Analytic host cost of one delta: key merge, tracker upkeep, patch."""
        changed = delta.num_added + delta.num_removed
        merge = new_nnz * self.host.slicing_ns_per_nnz * 1e-9
        tracker = changed * self.host.overlap_extract_ns_per_nnz * 1e-9
        patch = touched * self.feature_dim * 4.0 * 1e-9  # ~1 GB/s row rewrite
        return merge + tracker + patch + self.host.snapshot_prep_us * 1e-6

    def _validate_delta(self, delta: GraphDelta) -> None:
        n = self.num_nodes
        for name in ("added_edges", "removed_edges"):
            edges = getattr(delta, name)
            if len(edges) and (edges.min() < 0 or edges.max() >= n):
                raise ValueError(
                    f"{name} endpoints must be in [0, {n}), got "
                    f"[{edges.min()}, {edges.max()}]"
                )
        bad = [v for v in delta.feature_updates if not 0 <= int(v) < n]
        if bad:
            raise ValueError(f"feature_updates node ids must be in [0, {n}), got {bad}")

    def apply(self, delta: GraphDelta) -> DeltaReport:
        """Apply one delta, advance the head version and slide the window."""
        self._validate_delta(delta)
        head = self._window[-1]
        n = self.num_nodes
        current = self._keys[self._version]

        removed_keys = intersect(delta.removed_keys(n), current)
        survivors = difference(current, removed_keys)
        added_keys = difference(delta.added_keys(n), current)
        new_keys = union(survivors, added_keys)

        if len(removed_keys) or len(added_keys):
            adjacency = CSRMatrix.from_edge_keys(new_keys, head.adjacency.shape)
        else:
            adjacency = head.adjacency
        features = head.features
        if delta.feature_updates:
            features = features.copy()
            for node, row in delta.feature_updates.items():
                features[node] = np.asarray(row, dtype=np.float32)

        new_version = self._version + 1
        snapshot = GraphSnapshot(
            adjacency=adjacency, features=features, targets=None, timestep=new_version
        )
        evicted = self._tracker.push(new_version, new_keys)
        self._window.append(snapshot)
        if len(self._window) > self.window_capacity:
            old = self._window.popleft()
            del self._keys[old.timestep]
            self._shared = {
                key: value for key, value in self._shared.items() if old.timestep not in key[0]
            }
        self._keys[new_version] = new_keys

        touched = self._touched_rows(delta, added_keys, removed_keys, new_keys)
        report = DeltaReport(
            version=new_version,
            parent_version=new_version - 1,
            evicted_version=evicted,
            touched_rows=touched,
            num_added=int(len(added_keys)),
            num_removed=int(len(removed_keys)),
            num_feature_updates=delta.num_feature_updates,
            apply_seconds=self._apply_seconds(delta, len(new_keys), len(touched)),
        )
        self._version = new_version
        self.deltas_applied += 1
        return report
