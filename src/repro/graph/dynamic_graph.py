"""Discrete-time dynamic graph (DTDG) container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

import numpy as np

from repro.graph.overlap import adjacent_change_rates
from repro.graph.snapshot import GraphSnapshot


@dataclass
class DynamicGraph:
    """An ordered sequence of :class:`GraphSnapshot` over a fixed node set.

    This is the DTDG of §2.1: ``{G_1, ..., G_t}`` where every snapshot shares
    the same node universe but its own edge set, features and targets.
    """

    snapshots: List[GraphSnapshot]
    name: str = "dynamic-graph"
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.snapshots:
            raise ValueError("a DynamicGraph needs at least one snapshot")
        nodes = self.snapshots[0].num_nodes
        dim = self.snapshots[0].feature_dim
        for snap in self.snapshots:
            if snap.num_nodes != nodes:
                raise ValueError("all snapshots must share the same node count")
            if snap.feature_dim != dim:
                raise ValueError("all snapshots must share the same feature dimension")

    # -- basic properties --------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.snapshots[0].num_nodes

    @property
    def num_snapshots(self) -> int:
        return len(self.snapshots)

    @property
    def feature_dim(self) -> int:
        return self.snapshots[0].feature_dim

    @property
    def total_edges(self) -> int:
        return sum(s.num_edges for s in self.snapshots)

    def __len__(self) -> int:
        return self.num_snapshots

    def __getitem__(self, index: int) -> GraphSnapshot:
        return self.snapshots[index]

    def __iter__(self) -> Iterator[GraphSnapshot]:
        return iter(self.snapshots)

    # -- analysis ----------------------------------------------------------
    def change_rates(self) -> np.ndarray:
        """Topology change rate between each pair of adjacent snapshots."""
        return adjacent_change_rates([s.adjacency for s in self.snapshots])

    def average_change_rate(self) -> float:
        rates = self.change_rates()
        return float(rates.mean()) if len(rates) else 0.0

    def edge_counts(self) -> np.ndarray:
        return np.array([s.num_edges for s in self.snapshots], dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DynamicGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"snapshots={self.num_snapshots}, dim={self.feature_dim})"
        )
