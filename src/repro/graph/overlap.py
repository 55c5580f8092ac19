"""Topology-overlap extraction among adjacent snapshots (paper §4.1).

Real dynamic graphs evolve slowly (≈10 % of edges change between adjacent
snapshots), so a group of snapshots processed together shares most of its
topology.  PiPAD regroups the adjacency data of a partition into one
*overlap* adjacency (the intersection of all member snapshots) plus one
small *exclusive* adjacency per snapshot, which both reduces the transfer
volume and enables the parallel aggregation of §4.2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRMatrix
from repro.graph.keys import union, unique


@dataclass(frozen=True)
class SnapshotOverlap:
    """The overlap decomposition of a group of snapshots.

    Attributes
    ----------
    overlap:
        Adjacency holding the edges present in *every* snapshot of the group.
    exclusives:
        One adjacency per snapshot holding its edges not in ``overlap``.
        ``overlap + exclusives[i]`` reconstructs snapshot ``i`` exactly.
    overlap_rate:
        ``|intersection| / |union|`` across the group (the paper's OR).
    """

    overlap: CSRMatrix
    exclusives: List[CSRMatrix]
    overlap_rate: float

    @property
    def group_size(self) -> int:
        return len(self.exclusives)


def extract_overlap(adjacencies: Sequence[CSRMatrix]) -> SnapshotOverlap:
    """Decompose a snapshot group into overlap + exclusive adjacencies.

    All adjacencies must share the same shape.  The decomposition is exact:
    for every snapshot ``i``, ``overlap ∪ exclusives[i]`` equals the original
    edge set and the two parts are disjoint.
    """
    if not adjacencies:
        raise ValueError("need at least one adjacency")
    shape = adjacencies[0].shape
    for adj in adjacencies:
        if adj.shape != shape:
            raise ValueError("all adjacencies in a group must share the same shape")
    key_sets = [adj.edge_keys() for adj in adjacencies]
    if len(key_sets) == 1:
        overlap_keys = key_sets[0]
    else:
        overlap_keys = reduce(lambda a, b: np.intersect1d(a, b, assume_unique=True), key_sets)
    union_size = len(unique(np.concatenate(key_sets)))
    exclusives = [
        CSRMatrix.from_edge_keys(np.setdiff1d(keys, overlap_keys, assume_unique=True), shape)
        for keys in key_sets
    ]
    overlap = CSRMatrix.from_edge_keys(overlap_keys, shape)
    rate = float(len(overlap_keys) / union_size) if union_size else 1.0
    return SnapshotOverlap(overlap=overlap, exclusives=exclusives, overlap_rate=rate)


def pairwise_overlap_rate(a: CSRMatrix, b: CSRMatrix) -> float:
    """Jaccard overlap ``|A ∩ B| / |A ∪ B|`` between two adjacency edge sets."""
    ka, kb = a.edge_keys(), b.edge_keys()
    if len(ka) == 0 and len(kb) == 0:
        return 1.0
    inter = len(np.intersect1d(ka, kb, assume_unique=True))
    union = len(ka) + len(kb) - inter
    return inter / union if union else 1.0


def change_rate(previous: CSRMatrix, current: CSRMatrix) -> float:
    """Fraction of the union edge set that changed between two snapshots.

    This is the statistic the paper quotes as the "changing rate of the
    topology among adjacent snapshots" (~10 % on average).
    """
    return 1.0 - pairwise_overlap_rate(previous, current)


def adjacent_change_rates(adjacencies: Sequence[CSRMatrix]) -> np.ndarray:
    """Change rate between every pair of consecutive adjacencies."""
    if len(adjacencies) < 2:
        return np.zeros(0, dtype=np.float64)
    return np.array(
        [change_rate(adjacencies[i], adjacencies[i + 1]) for i in range(len(adjacencies) - 1)]
    )


def refine_overlap(decomposition: SnapshotOverlap, indices: Sequence[int]) -> SnapshotOverlap:
    """Decomposition of a *subgroup* derived from a whole-group decomposition.

    Shrinking a group can only grow its intersection, and every edge the
    subgroup shares beyond the full-group overlap must live in each member's
    (small) exclusive set.  Intersecting only the exclusives therefore yields
    the subgroup decomposition without touching the (large) overlap adjacency
    — the serving path uses this to build partition-level groups from the
    incrementally maintained window decomposition.
    """
    if not indices:
        raise ValueError("need at least one snapshot index")
    for i in indices:
        if not 0 <= i < decomposition.group_size:
            raise IndexError(f"snapshot index {i} out of range [0, {decomposition.group_size})")
    shape = decomposition.overlap.shape
    base_keys = decomposition.overlap.edge_keys()
    exclusive_keys = [decomposition.exclusives[i].edge_keys() for i in indices]
    promoted = reduce(
        lambda a, b: np.intersect1d(a, b, assume_unique=True), exclusive_keys
    )
    overlap_keys = union(base_keys, promoted)
    exclusives = [
        CSRMatrix.from_edge_keys(np.setdiff1d(keys, promoted, assume_unique=True), shape)
        for keys in exclusive_keys
    ]
    # base overlap and every exclusive are disjoint, so |∪| decomposes.
    union_size = len(base_keys) + len(unique(np.concatenate(exclusive_keys)))
    rate = float(len(overlap_keys) / union_size) if union_size else 1.0
    return SnapshotOverlap(
        overlap=CSRMatrix.from_edge_keys(overlap_keys, shape),
        exclusives=exclusives,
        overlap_rate=rate,
    )


class IncrementalOverlapTracker:
    """Maintains the overlap decomposition of a sliding snapshot window.

    The serving engine appends one snapshot version per graph delta and
    evicts the oldest one once the window is full.  Instead of re-running
    :func:`extract_overlap` over the whole window (which intersects all
    ``W`` member key sets), the tracker keeps a per-edge membership count:
    an edge belongs to the overlap exactly when its count equals the window
    length, and the union size is the number of live keys.  A push costs
    one vectorized merge over the pushed (and evicted) snapshot's keys —
    linear in a single snapshot's edge count, independent of the window
    length.
    """

    def __init__(self, shape: Tuple[int, int], capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.shape = shape
        self.capacity = capacity
        self._window: Deque[Tuple[int, np.ndarray]] = deque()
        #: sorted live keys and their window membership counts (parallel arrays)
        self._count_keys: np.ndarray = np.zeros(0, dtype=np.int64)
        self._count_vals: np.ndarray = np.zeros(0, dtype=np.int64)
        self._decomposition: Optional[SnapshotOverlap] = None

    # -- window management -------------------------------------------------
    def __len__(self) -> int:
        return len(self._window)

    @property
    def versions(self) -> List[int]:
        """Snapshot versions currently in the window, oldest first."""
        return [version for version, _ in self._window]

    def _decrement(self, keys: np.ndarray) -> None:
        if not len(keys):
            return
        idx = np.searchsorted(self._count_keys, keys)
        self._count_vals[idx] -= 1
        if np.any(self._count_vals[idx] == 0):
            alive = self._count_vals > 0
            self._count_keys = self._count_keys[alive]
            self._count_vals = self._count_vals[alive]

    def _increment(self, keys: np.ndarray) -> None:
        if not len(keys):
            return
        if len(self._count_keys):
            idx = np.searchsorted(self._count_keys, keys)
            clipped = np.minimum(idx, len(self._count_keys) - 1)
            present = self._count_keys[clipped] == keys
            self._count_vals[idx[present]] += 1
            fresh = keys[~present]
        else:
            fresh = keys
        if len(fresh):
            merged_keys = np.concatenate([self._count_keys, fresh])
            merged_vals = np.concatenate(
                [self._count_vals, np.ones(len(fresh), dtype=np.int64)]
            )
            order = np.argsort(merged_keys, kind="stable")
            self._count_keys = merged_keys[order]
            self._count_vals = merged_vals[order]

    def push(self, version: int, adjacency_or_keys) -> Optional[int]:
        """Append a snapshot version; returns the evicted version, if any."""
        if isinstance(adjacency_or_keys, CSRMatrix):
            keys = adjacency_or_keys.edge_keys()
        else:
            keys = unique(np.asarray(adjacency_or_keys, dtype=np.int64))
        evicted: Optional[int] = None
        if len(self._window) == self.capacity:
            evicted_version, evicted_keys = self._window.popleft()
            evicted = evicted_version
            self._decrement(evicted_keys)
        self._increment(keys)
        self._window.append((version, keys))
        self._decomposition = None
        return evicted

    # -- decomposition -----------------------------------------------------
    def decomposition(self) -> SnapshotOverlap:
        """Overlap/exclusive decomposition of the current window (cached)."""
        if not self._window:
            raise ValueError("tracker window is empty")
        if self._decomposition is None:
            full = len(self._window)
            overlap_keys = self._count_keys[self._count_vals == full]
            exclusives = [
                CSRMatrix.from_edge_keys(
                    np.setdiff1d(keys, overlap_keys, assume_unique=True), self.shape
                )
                for _, keys in self._window
            ]
            union_size = len(self._count_keys)
            rate = float(len(overlap_keys) / union_size) if union_size else 1.0
            self._decomposition = SnapshotOverlap(
                overlap=CSRMatrix.from_edge_keys(overlap_keys, self.shape),
                exclusives=exclusives,
                overlap_rate=rate,
            )
        return self._decomposition

    def overlap_rate(self) -> float:
        return self.decomposition().overlap_rate
