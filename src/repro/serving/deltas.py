"""Graph deltas and serving traces.

Online DGNN serving ingests the dynamic graph as a stream of *deltas* —
edge insertions/removals plus node-feature updates — instead of whole
snapshots.  Each applied delta produces a new immutable snapshot *version*
at the head of the serving window; the paper's observation that adjacent
snapshots share ~90 % of their topology is what keeps these deltas small
and the incremental bookkeeping cheap.

:func:`synthesize_serving_trace` builds a reproducible mixed stream of
deltas and prediction requests with arrival timestamps, so the example and
the latency benchmark can replay the exact same workload against different
serving configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.graph.keys import difference, union
from repro.graph.snapshot import GraphSnapshot
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_in_range, check_positive


@dataclass(frozen=True, eq=False)
class GraphDelta:
    """One atomic update to the head snapshot.

    Attributes
    ----------
    added_edges / removed_edges:
        ``(k, 2)`` int64 arrays of ``(src, dst)`` pairs.  Removals that do
        not exist and additions that already exist are ignored (idempotent
        application), mirroring how streaming graph stores deduplicate.
    feature_updates:
        Mapping from node id to its new feature row.
    """

    added_edges: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    removed_edges: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    feature_updates: Mapping[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("added_edges", "removed_edges"):
            arr = np.asarray(getattr(self, name), dtype=np.int64).reshape(-1, 2)
            object.__setattr__(self, name, arr)

    @property
    def num_added(self) -> int:
        return int(self.added_edges.shape[0])

    @property
    def num_removed(self) -> int:
        return int(self.removed_edges.shape[0])

    @property
    def num_feature_updates(self) -> int:
        return len(self.feature_updates)

    def added_keys(self, num_cols: int) -> np.ndarray:
        """Flat ``row * n_cols + col`` keys of the added edges."""
        return self.added_edges[:, 0] * num_cols + self.added_edges[:, 1]

    def removed_keys(self, num_cols: int) -> np.ndarray:
        """Flat ``row * n_cols + col`` keys of the removed edges."""
        return self.removed_edges[:, 0] * num_cols + self.removed_edges[:, 1]

    @classmethod
    def empty(cls) -> "GraphDelta":
        return cls()


@dataclass(frozen=True, eq=False)
class ServingEvent:
    """One timestamped event of a serving trace."""

    time: float
    kind: str  # "delta" | "request"
    delta: Optional[GraphDelta] = None
    node_ids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in ("delta", "request"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind == "delta" and self.delta is None:
            raise ValueError("delta events need a GraphDelta")
        if self.kind == "request" and self.node_ids is None:
            raise ValueError("request events need node ids")


def _keys_to_edges(keys: np.ndarray, num_cols: int) -> np.ndarray:
    rows, cols = np.divmod(np.asarray(keys, dtype=np.int64), num_cols)
    return np.stack([rows, cols], axis=1) if len(keys) else np.zeros((0, 2), dtype=np.int64)


#: share of a delta's edges that change (half removed, half added)
EDGE_CHANGE_FRACTION = 0.04
#: share of the nodes whose features a delta rewrites
FEATURE_UPDATE_FRACTION = 0.02


def random_delta(
    current_keys: np.ndarray,
    num_nodes: int,
    rng: np.random.Generator,
    *,
    feature_dim: int = 0,
) -> Tuple[GraphDelta, np.ndarray]:
    """Sample one delta against the current edge-key set.

    Returns the delta and the resulting key set, so trace synthesis can
    evolve the graph without owning a snapshot store.  Half the changed edge
    mass is removals and half fresh insertions, matching the generators'
    :func:`~repro.graph.generators.evolve_edge_keys` convention, so the
    adjacent-version overlap stays near ``1 - EDGE_CHANGE_FRACTION``.
    """
    current_keys = np.asarray(current_keys, dtype=np.int64)
    num_change = int(round(len(current_keys) * EDGE_CHANGE_FRACTION / 2.0))

    removed = (
        rng.permutation(current_keys)[:num_change] if num_change else np.zeros(0, dtype=np.int64)
    )
    survivors = difference(current_keys, removed)
    added: np.ndarray = np.zeros(0, dtype=np.int64)
    while len(added) < num_change:
        need = int((num_change - len(added)) * 1.5) + 4
        rows = rng.integers(0, num_nodes, size=need, dtype=np.int64)
        cols = rng.integers(0, num_nodes, size=need, dtype=np.int64)
        fresh = rows[rows != cols] * num_nodes + cols[rows != cols]
        # Exclude *all* current keys (not just survivors): an edge that is
        # both removed and re-added in one delta would be resolved
        # differently by the store (idempotent add against the pre-delta
        # state) than by this mirror, silently diverging the trace.
        fresh = difference(fresh, current_keys)
        added = union(added, fresh)
    added = rng.permutation(added)[:num_change]

    updates: Dict[int, np.ndarray] = {}
    num_updates = int(round(num_nodes * FEATURE_UPDATE_FRACTION))
    if num_updates and feature_dim:
        for node in rng.choice(num_nodes, size=num_updates, replace=False):
            updates[int(node)] = rng.standard_normal(feature_dim).astype(np.float32)

    delta = GraphDelta(
        added_edges=_keys_to_edges(added, num_nodes),
        removed_edges=_keys_to_edges(removed, num_nodes),
        feature_updates=updates,
    )
    new_keys = union(survivors, added)
    return delta, new_keys


def synthesize_serving_trace(
    initial: GraphSnapshot,
    num_events: int,
    *,
    request_fraction: float = 0.7,
    nodes_per_request: int = 8,
    mean_interarrival_ms: float = 1.0,
    seed: SeedLike = 0,
) -> List[ServingEvent]:
    """Build a reproducible mixed delta/request trace starting from a snapshot.

    Events carry monotonically increasing arrival times with exponential
    spacing around ``mean_interarrival_ms``.  Deltas evolve a key-set mirror
    of the head topology, so replaying the trace against any store seeded
    with ``initial`` applies exactly the same updates.
    """
    check_positive("num_events", num_events)
    check_in_range("request_fraction", request_fraction, 0.0, 1.0)
    check_positive("nodes_per_request", nodes_per_request)
    rng = as_rng(seed)
    num_nodes = initial.num_nodes
    keys = initial.adjacency.edge_keys()

    events: List[ServingEvent] = []
    clock = 0.0
    for _ in range(num_events):
        clock += float(rng.exponential(mean_interarrival_ms * 1e-3))
        if rng.random() < request_fraction:
            node_ids = rng.choice(
                num_nodes, size=min(nodes_per_request, num_nodes), replace=False
            ).astype(np.int64)
            events.append(ServingEvent(time=clock, kind="request", node_ids=node_ids))
        else:
            delta, keys = random_delta(keys, num_nodes, rng, feature_dim=initial.feature_dim)
            events.append(ServingEvent(time=clock, kind="delta", delta=delta))
    return events
