"""Topology-overlap extraction among adjacent snapshots (paper §4.1).

Real dynamic graphs evolve slowly (≈10 % of edges change between adjacent
snapshots), so a group of snapshots processed together shares most of its
topology.  PiPAD regroups the adjacency data of a partition into one
*overlap* adjacency (the intersection of all member snapshots) plus one
small *exclusive* adjacency per snapshot, which both reduces the transfer
volume and enables the parallel aggregation of §4.2.

Every function here works on sorted edge keys and returns a
:class:`SnapshotOverlap` of keys.  A part's CSR is built only when a reader
asks for it — in practice when an aggregation kernel over that part is
first built — so the serving path, which re-derives the window and its
partition groups after every delta, builds CSRs only for the parts a
forward pass actually computes.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from typing import Deque, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.csr import CSRMatrix
from repro.graph.keys import union, unique


class SnapshotOverlap:
    """The overlap decomposition of a group of snapshots.

    The group has ``group_size + 1`` parts: the *overlap* (the edges present
    in every snapshot) and one *exclusive* part per snapshot (its edges not
    in the overlap; ``overlap ∪ exclusive_i`` is snapshot ``i`` exactly).
    Each part is held in one form at a time: as sorted, distinct
    ``row * n_cols + col`` edge keys (§4.1) until its CSR is first read,
    then as that CSR alone, whose
    :meth:`~repro.graph.csr.CSRMatrix.edge_keys` give the same keys back.
    Refining, sizing and tracking a decomposition are set operations over
    keys, so a part's CSR is built only for a kernel that reads it, and a
    group never holds its edges twice.

    ``overlap_rate`` is ``|intersection| / |union|`` across the group (the
    paper's OR); ``shape`` is ``(n_rows, n_cols)`` of every member.
    """

    def __init__(
        self,
        overlap_keys: np.ndarray,
        exclusive_keys: Sequence[np.ndarray],
        shape: Tuple[int, int],
        overlap_rate: float,
    ) -> None:
        self.shape = shape
        self.overlap_rate = overlap_rate
        #: the overlap, then each snapshot's exclusive part
        self._parts: List[Union[np.ndarray, CSRMatrix]] = [overlap_keys, *exclusive_keys]

    @property
    def group_size(self) -> int:
        return len(self._parts) - 1

    def _keys(self, part: int) -> np.ndarray:
        held = self._parts[part]
        return held.edge_keys() if isinstance(held, CSRMatrix) else held

    def _csr(self, part: int) -> CSRMatrix:
        held = self._parts[part]
        if not isinstance(held, CSRMatrix):
            held = self._parts[part] = CSRMatrix.from_edge_keys(held, self.shape)
        return held

    @property
    def overlap_keys(self) -> np.ndarray:
        """Sorted keys of the edges present in every snapshot of the group."""
        return self._keys(0)

    def exclusive_keys(self, index: int) -> np.ndarray:
        """Sorted keys of snapshot ``index``'s edges not in the overlap."""
        return self._keys(index + 1)

    @property
    def overlap(self) -> CSRMatrix:
        """Adjacency of the edges present in every snapshot of the group."""
        return self._csr(0)

    def exclusive(self, index: int) -> CSRMatrix:
        """Adjacency of snapshot ``index``'s edges not in ``overlap``."""
        return self._csr(index + 1)

    @property
    def exclusives(self) -> List[CSRMatrix]:
        """:meth:`exclusive` of every snapshot, in group order."""
        return [self.exclusive(i) for i in range(self.group_size)]


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
    exclusive_keys = tuple(
        np.setdiff1d(keys, overlap_keys, assume_unique=True) for keys in key_sets
    )
    rate = float(len(overlap_keys) / union_size) if union_size else 1.0
    return SnapshotOverlap(overlap_keys, exclusive_keys, shape, rate)


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
    incrementally maintained window decomposition.  It reads and returns
    keys only; no CSR is built.
    """
    if not indices:
        raise ValueError("need at least one snapshot index")
    for i in indices:
        if not 0 <= i < decomposition.group_size:
            raise IndexError(f"snapshot index {i} out of range [0, {decomposition.group_size})")
    base_keys = decomposition.overlap_keys
    exclusive_keys = [decomposition.exclusive_keys(i) for i in indices]
    promoted = reduce(
        lambda a, b: np.intersect1d(a, b, assume_unique=True), exclusive_keys
    )
    overlap_keys = union(base_keys, promoted)
    exclusives = tuple(
        np.setdiff1d(keys, promoted, assume_unique=True) for keys in exclusive_keys
    )
    # base overlap and every exclusive are disjoint, so |∪| decomposes.
    union_size = len(base_keys) + len(unique(np.concatenate(exclusive_keys)))
    rate = float(len(overlap_keys) / union_size) if union_size else 1.0
    return SnapshotOverlap(overlap_keys, exclusives, decomposition.shape, rate)


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
            # A member's exclusive keys are its keys not in every member:
            # look their counts up instead of diffing against the overlap.
            exclusives = tuple(
                keys[self._count_vals[np.searchsorted(self._count_keys, keys)] < full]
                for _, keys in self._window
            )
            union_size = len(self._count_keys)
            rate = float(len(overlap_keys) / union_size) if union_size else 1.0
            self._decomposition = SnapshotOverlap(overlap_keys, exclusives, self.shape, rate)
        return self._decomposition

    def overlap_rate(self) -> float:
        return self.decomposition().overlap_rate
