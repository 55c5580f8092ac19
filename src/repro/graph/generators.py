"""Synthetic dynamic-graph generators.

The paper evaluates on seven real datasets (Table 1) that are not shipped
here; instead each dataset is reproduced by a parameterized generator that
matches its statistically relevant properties — node count (scaled),
per-snapshot edge density, degree skew, feature dimension, snapshot count and
the ~10 % adjacent-snapshot topology change rate — because those are the
quantities the performance behaviour depends on (see DESIGN.md §2).

Topology processes
------------------
``preferential``
    Skewed (power-law-ish) degree distribution via preferential attachment,
    matching social/e-commerce networks.
``uniform``
    Erdős–Rényi-style uniform random edges, matching low-skew graphs.
``community``
    A stochastic-block-model-like structure with dense intra-community
    blocks, matching citation/contact networks with good locality.
``static``
    A fixed road-network-like topology (small-world ring lattice) whose
    edges never change, matching traffic-sensor graphs (PEMS08).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.graph.csr import CSRMatrix
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.keys import difference, union, unique
from repro.graph.smoothing import apply_edge_life
from repro.graph.snapshot import GraphSnapshot
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_in_range, check_positive

TOPOLOGIES = ("preferential", "uniform", "community", "static")


# ---------------------------------------------------------------------------
# edge-set generation
# ---------------------------------------------------------------------------
def _sample_edges_uniform(num_nodes: int, num_edges: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``num_edges`` distinct directed edge keys uniformly (no self loops)."""
    if num_edges <= 0:
        return np.zeros(0, dtype=np.int64)
    max_edges = num_nodes * (num_nodes - 1)
    num_edges = min(num_edges, max_edges)
    keys: np.ndarray = np.zeros(0, dtype=np.int64)
    # Rejection-sample in bulk until we have enough distinct non-loop edges.
    while len(keys) < num_edges:
        need = int((num_edges - len(keys)) * 1.3) + 8
        rows = rng.integers(0, num_nodes, size=need, dtype=np.int64)
        cols = rng.integers(0, num_nodes, size=need, dtype=np.int64)
        mask = rows != cols
        new = rows[mask] * num_nodes + cols[mask]
        keys = union(keys, new)
    return rng.permutation(keys)[:num_edges]


def _sample_edges_preferential(
    num_nodes: int, num_edges: int, rng: np.random.Generator, skew: float = 1.0
) -> np.ndarray:
    """Sample distinct edges whose endpoints follow a skewed (Zipf-like) weight."""
    if num_edges <= 0:
        return np.zeros(0, dtype=np.int64)
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    keys: np.ndarray = np.zeros(0, dtype=np.int64)
    while len(keys) < num_edges:
        need = int((num_edges - len(keys)) * 1.5) + 8
        rows = rng.choice(num_nodes, size=need, p=weights).astype(np.int64)
        cols = rng.integers(0, num_nodes, size=need, dtype=np.int64)
        mask = rows != cols
        new = rows[mask] * num_nodes + cols[mask]
        keys = union(keys, new)
    return rng.permutation(keys)[:num_edges]


def _sample_edges_community(
    num_nodes: int,
    num_edges: int,
    rng: np.random.Generator,
    num_communities: int = 8,
    intra_prob: float = 0.85,
) -> np.ndarray:
    """Sample distinct edges that mostly stay inside node communities."""
    if num_edges <= 0:
        return np.zeros(0, dtype=np.int64)
    num_communities = max(1, min(num_communities, num_nodes))
    community = rng.integers(0, num_communities, size=num_nodes)
    members = [np.flatnonzero(community == c) for c in range(num_communities)]
    members = [m for m in members if len(m) > 1] or [np.arange(num_nodes)]
    keys: np.ndarray = np.zeros(0, dtype=np.int64)
    while len(keys) < num_edges:
        need = int((num_edges - len(keys)) * 1.5) + 8
        intra = rng.random(need) < intra_prob
        rows = np.empty(need, dtype=np.int64)
        cols = np.empty(need, dtype=np.int64)
        # Intra-community edges: both endpoints from the same (random) block.
        comm_idx = rng.integers(0, len(members), size=need)
        for i in range(need):
            block = members[comm_idx[i]]
            if intra[i]:
                rows[i] = block[rng.integers(0, len(block))]
                cols[i] = block[rng.integers(0, len(block))]
            else:
                rows[i] = rng.integers(0, num_nodes)
                cols[i] = rng.integers(0, num_nodes)
        mask = rows != cols
        new = rows[mask] * num_nodes + cols[mask]
        keys = union(keys, new)
    return rng.permutation(keys)[:num_edges]


def _sample_edges_static(num_nodes: int, num_edges: int, rng: np.random.Generator) -> np.ndarray:
    """Road-network-like ring lattice with a few random chords (deterministic shape)."""
    if num_edges <= 0:
        return np.zeros(0, dtype=np.int64)
    nodes = np.arange(num_nodes, dtype=np.int64)
    hops = max(1, int(np.ceil(num_edges / (2 * num_nodes))))
    rows, cols = [], []
    for h in range(1, hops + 1):
        rows.append(nodes)
        cols.append((nodes + h) % num_nodes)
        rows.append(nodes)
        cols.append((nodes - h) % num_nodes)
    rows_arr = np.concatenate(rows)
    cols_arr = np.concatenate(cols)
    keys = unique(rows_arr * num_nodes + cols_arr)
    if len(keys) > num_edges:
        keys = rng.permutation(keys)[:num_edges]
    return np.sort(keys)


_EDGE_SAMPLERS = {
    "preferential": _sample_edges_preferential,
    "uniform": _sample_edges_uniform,
    "community": _sample_edges_community,
    "static": _sample_edges_static,
}


def evolve_edge_keys(
    keys: np.ndarray,
    num_nodes: int,
    change_rate: float,
    rng: np.random.Generator,
    topology: str,
) -> np.ndarray:
    """Produce the next snapshot's edge keys by rewiring ``change_rate`` of edges.

    Half the changed mass is edge removal and half is insertion of fresh edges
    drawn from the same topology process, so the expected edge count stays
    constant while the adjacent-snapshot Jaccard overlap lands near
    ``1 - change_rate``.
    """
    check_in_range("change_rate", change_rate, 0.0, 1.0)
    if topology == "static" or change_rate == 0.0 or len(keys) == 0:
        return keys.copy()
    num_change = int(round(len(keys) * change_rate / 2.0))
    if num_change == 0:
        return keys.copy()
    keep = rng.permutation(len(keys))[num_change:]
    survivors = keys[np.sort(keep)]
    sampler = _EDGE_SAMPLERS[topology]
    fresh = sampler(num_nodes, num_change * 3, rng)
    fresh = difference(fresh, survivors)[:num_change]
    return union(survivors, fresh)


# ---------------------------------------------------------------------------
# features and targets
# ---------------------------------------------------------------------------
def _make_features(
    num_nodes: int,
    feature_dim: int,
    num_snapshots: int,
    rng: np.random.Generator,
) -> List[np.ndarray]:
    """Per-snapshot node features: a static base plus a slow random drift
    (5 % of a standard normal per snapshot)."""
    base = rng.standard_normal((num_nodes, feature_dim)).astype(np.float32)
    features = []
    current = base
    for _ in range(num_snapshots):
        features.append(current.copy())
        current = current + 0.05 * rng.standard_normal((num_nodes, feature_dim)).astype(
            np.float32
        )
    return features


def _make_targets(
    adjacencies: Sequence[CSRMatrix], features: Sequence[np.ndarray], rng: np.random.Generator
) -> List[np.ndarray]:
    """Node-level regression targets tied to the dynamics.

    The target of node ``v`` at time ``t`` is the (normalized) degree of ``v``
    at time ``t + 1`` plus a small noise term — a simple forecasting task that
    actually depends on both structure and time, so training has signal.
    """
    targets: List[np.ndarray] = []
    num_nodes = adjacencies[0].num_rows
    for t in range(len(adjacencies)):
        nxt = adjacencies[min(t + 1, len(adjacencies) - 1)]
        degree = nxt.row_nnz().astype(np.float32)
        scale = max(1.0, float(degree.max(initial=1.0)))
        signal = degree / scale + 0.1 * features[t][:, 0]
        noise = 0.05 * rng.standard_normal(num_nodes).astype(np.float32)
        targets.append((signal + noise).astype(np.float32))
    return targets


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of a synthetic dynamic graph."""

    num_nodes: int
    avg_degree: float
    feature_dim: int
    num_snapshots: int
    change_rate: float = 0.10
    topology: str = "preferential"
    edge_life: int = 1
    name: str = "synthetic"

    def __post_init__(self) -> None:
        check_positive("num_nodes", self.num_nodes)
        check_positive("feature_dim", self.feature_dim)
        check_positive("num_snapshots", self.num_snapshots)
        check_in_range("change_rate", self.change_rate, 0.0, 1.0)
        check_positive("edge_life", self.edge_life)
        if self.avg_degree < 0:
            raise ValueError("avg_degree must be >= 0")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}")


def generate_dynamic_graph(config: GeneratorConfig, seed: SeedLike = 0) -> DynamicGraph:
    """Generate a synthetic :class:`DynamicGraph` from a :class:`GeneratorConfig`."""
    rng = as_rng(seed)
    n = config.num_nodes
    edges_per_snapshot = max(1, int(round(config.avg_degree * n)))
    sampler = _EDGE_SAMPLERS[config.topology]

    keys = sampler(n, edges_per_snapshot, rng)
    raw_adjacencies: List[CSRMatrix] = []
    for _ in range(config.num_snapshots):
        raw_adjacencies.append(CSRMatrix.from_edge_keys(keys, (n, n)))
        keys = evolve_edge_keys(keys, n, config.change_rate, rng, config.topology)

    adjacencies = (
        apply_edge_life(raw_adjacencies, config.edge_life)
        if config.edge_life > 1
        else raw_adjacencies
    )
    features = _make_features(n, config.feature_dim, config.num_snapshots, rng)
    targets = _make_targets(adjacencies, features, rng)

    snapshots = [
        GraphSnapshot(adjacency=adjacencies[t], features=features[t], targets=targets[t], timestep=t)
        for t in range(config.num_snapshots)
    ]
    metadata = {
        "generator": config.topology,
        "avg_degree": config.avg_degree,
        "change_rate": config.change_rate,
        "edge_life": config.edge_life,
        "raw_total_edges": sum(a.nnz for a in raw_adjacencies),
    }
    return DynamicGraph(snapshots=snapshots, name=config.name, metadata=metadata)
