"""Dataset registry mirroring Table 1 of the paper (scaled-down analogues).

Each entry reproduces one of the seven evaluation datasets with a synthetic
generator whose statistically relevant parameters (relative density, degree
skew, feature dimension, snapshot count, topology change rate, edge-life
smoothening) follow the original; node counts are scaled to laptop size.
The paper's raw statistics are kept alongside in :class:`PaperStats` so the
Table 1 benchmark can print both.

The paper sets the input feature dimension to 2 and the hidden dimension to
6 for the large-scale datasets, and 16/32 for the small-scale ones (§5.1);
the registry records those choices so trainers pick them up automatically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import GeneratorConfig, generate_dynamic_graph
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class PaperStats:
    """Raw statistics of the original dataset as printed in Table 1."""

    num_nodes: int
    num_edges: int
    feature_dim: int
    num_snapshots: int
    smoothened_edges: int


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset analogue.

    Attributes
    ----------
    name:
        Registry key (lower-case, underscores).
    category:
        Application domain from Table 1 (social network, e-commerce, ...).
    scale:
        ``"large"`` or ``"small"`` — the paper's split that decides the
        input/hidden dimensions and the reachable parallelism level.
    config:
        Generator parameters of the scaled analogue.
    hidden_dim:
        Hidden dimension used by the DGNN models on this dataset (§5.1).
    paper:
        The original Table 1 statistics (unscaled).
    """

    name: str
    category: str
    scale: str
    config: GeneratorConfig
    hidden_dim: int
    paper: PaperStats
    description: str = ""


def _spec(
    name: str,
    category: str,
    scale: str,
    *,
    num_nodes: int,
    avg_degree: float,
    feature_dim: int,
    num_snapshots: int,
    change_rate: float,
    topology: str,
    edge_life: int,
    hidden_dim: int,
    paper: PaperStats,
    description: str,
) -> DatasetSpec:
    config = GeneratorConfig(
        num_nodes=num_nodes,
        avg_degree=avg_degree,
        feature_dim=feature_dim,
        num_snapshots=num_snapshots,
        change_rate=change_rate,
        topology=topology,
        edge_life=edge_life,
        name=name,
    )
    return DatasetSpec(
        name=name,
        category=category,
        scale=scale,
        config=config,
        hidden_dim=hidden_dim,
        paper=paper,
        description=description,
    )


# Scaled analogues.  "large" datasets keep feature dim 2 / hidden 6 and many
# nodes relative to the small ones; "small" datasets keep dim 16 / hidden 32.
_REGISTRY: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        _spec(
            "flickr",
            "social network",
            "large",
            num_nodes=2300,
            avg_degree=1.6,
            feature_dim=2,
            num_snapshots=33,
            change_rate=0.10,
            topology="preferential",
            edge_life=4,
            hidden_dim=6,
            paper=PaperStats(2_300_000, 33_100_000, 2, 132, 480_000_000),
            description="Dense social network with strong degree skew.",
        ),
        _spec(
            "youtube",
            "social network",
            "large",
            num_nodes=3200,
            avg_degree=0.06,
            feature_dim=2,
            num_snapshots=40,
            change_rate=0.12,
            topology="preferential",
            edge_life=3,
            hidden_dim=6,
            paper=PaperStats(3_200_000, 602_000, 2, 198, 11_000_000),
            description="Extremely sparse social network with many empty adjacency rows.",
        ),
        _spec(
            "amz_automotive",
            "e-commerce",
            "large",
            num_nodes=1100,
            avg_degree=0.45,
            feature_dim=2,
            num_snapshots=40,
            change_rate=0.10,
            topology="preferential",
            edge_life=5,
            hidden_dim=6,
            paper=PaperStats(1_100_000, 1_300_000, 2, 524, 55_000_000),
            description="Sparse co-purchase graph.",
        ),
        _spec(
            "epinions",
            "e-commerce",
            "large",
            num_nodes=727,
            avg_degree=2.2,
            feature_dim=2,
            num_snapshots=33,
            change_rate=0.08,
            topology="preferential",
            edge_life=4,
            hidden_dim=6,
            paper=PaperStats(727_000, 13_600_000, 2, 99, 78_000_000),
            description="Denser trust network.",
        ),
        _spec(
            "hepth",
            "citation network",
            "small",
            num_nodes=220,
            avg_degree=4.0,
            feature_dim=16,
            num_snapshots=43,
            change_rate=0.08,
            topology="community",
            edge_life=3,
            hidden_dim=32,
            paper=PaperStats(22_000, 2_600_000, 16, 214, 18_000_000),
            description="Citation network with community structure and good locality.",
        ),
        _spec(
            "pems08",
            "traffic network",
            "small",
            num_nodes=170,
            avg_degree=2.0,
            feature_dim=16,
            num_snapshots=30,
            change_rate=0.0,
            topology="static",
            edge_life=1,
            hidden_dim=32,
            paper=PaperStats(170, 7202, 16, 90, 7202),
            description="Static road-sensor topology; only features evolve.",
        ),
        _spec(
            "covid19_england",
            "disease transmission",
            "small",
            num_nodes=130,
            avg_degree=7.0,
            feature_dim=16,
            num_snapshots=30,
            change_rate=0.12,
            topology="community",
            edge_life=2,
            hidden_dim=32,
            paper=PaperStats(130, 82_000, 16, 61, 108_000),
            description="Dense mobility/contact graph between regions.",
        ),
    ]
}

#: dataset order used for the paper's figures (large first, then small)
DATASET_ORDER: List[str] = [
    "amz_automotive",
    "epinions",
    "flickr",
    "youtube",
    "hepth",
    "covid19_england",
    "pems08",
]

#: two-letter abbreviations used in Table 2
DATASET_ABBREVIATIONS: Dict[str, str] = {
    "amz_automotive": "AA",
    "epinions": "EP",
    "flickr": "FL",
    "youtube": "YT",
    "hepth": "HT",
    "covid19_england": "CE",
    "pems08": "PE",
}


def get_dataset_spec(name: str) -> DatasetSpec:
    """Look up a :class:`DatasetSpec` by name (case-insensitive)."""
    key = name.lower().replace("-", "_")
    if key not in _REGISTRY:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[key]


def load_dataset(
    name: str,
    seed: SeedLike = 0,
    *,
    num_snapshots: Optional[int] = None,
) -> DynamicGraph:
    """Generate the synthetic analogue of a Table 1 dataset.

    Parameters
    ----------
    name:
        One of :data:`DATASET_ORDER`.
    seed:
        Generator seed (default 0 so repeated loads are identical).
    num_snapshots:
        Override the number of snapshots (e.g. to shorten a benchmark).
    """
    spec = get_dataset_spec(name)
    config = spec.config
    if num_snapshots:
        config = dataclasses.replace(config, num_snapshots=num_snapshots)
    graph = generate_dynamic_graph(config, seed=seed)
    graph.metadata.update(
        {
            "dataset": spec.name,
            "category": spec.category,
            "scale": spec.scale,
            "hidden_dim": spec.hidden_dim,
            # Parallelism cap observed in the paper's evaluation (§5.2): the
            # 16 GB V100 only fits 2-snapshot parallelism on the large-scale
            # datasets, while the small ones allow the full candidate set.
            "max_s_per": 2 if spec.scale == "large" else 8,
        }
    )
    return graph
