"""Graph snapshots: one timestep of a discrete-time dynamic graph."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.graph.csr import CSRMatrix
from repro.utils.validation import check_array


@dataclass
class GraphSnapshot:
    """One DTDG snapshot: topology + node features (+ optional targets).

    Attributes
    ----------
    adjacency:
        Unweighted, possibly asymmetric adjacency over the global node set.
    features:
        ``float32`` node-feature matrix of shape ``(num_nodes, feature_dim)``.
    targets:
        Optional per-node regression targets, shape ``(num_nodes,)`` or
        ``(num_nodes, t)``.
    timestep:
        Position of this snapshot in the DTDG timeline.
    """

    adjacency: CSRMatrix
    features: np.ndarray
    targets: Optional[np.ndarray] = None
    timestep: int = 0
    #: memo of :func:`repro.nn.aggregation.inverse_degree`, shared by every
    #: kernel set and provider over this snapshot
    _inverse_degree: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.features = check_array("features", self.features, ndim=2, dtype_kind="f").astype(
            np.float32, copy=False
        )
        if self.features.shape[0] != self.adjacency.num_rows:
            raise ValueError(
                f"features rows ({self.features.shape[0]}) must match adjacency rows "
                f"({self.adjacency.num_rows})"
            )
        if self.adjacency.num_rows != self.adjacency.num_cols:
            raise ValueError("snapshot adjacency must be square")
        if self.targets is not None:
            self.targets = np.asarray(self.targets, dtype=np.float32)
            if self.targets.shape[0] != self.num_nodes:
                raise ValueError("targets must have one entry per node")

    @property
    def num_nodes(self) -> int:
        return self.adjacency.num_rows

    @property
    def num_edges(self) -> int:
        return self.adjacency.nnz

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def feature_bytes(self) -> int:
        """Host→device transfer size of the feature matrix."""
        return int(self.features.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"GraphSnapshot(t={self.timestep}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, dim={self.feature_dim})"
        )
