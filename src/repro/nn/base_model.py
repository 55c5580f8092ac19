"""Common interface of the three DGNN models.

All models process a frame of snapshots one *partition* (contiguous group of
snapshots) at a time: the GNN part of a partition is handed to an
:class:`~repro.nn.aggregation.AggregationProvider` (whose kernel set is one
snapshot's adjacency or the group's overlap decomposition), while the RNN
part carries hidden state sequentially across snapshots and partitions.  The class
attributes describe the structural properties PiPAD's runtime keys on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.nn.aggregation import AggregationProvider
from repro.nn.context import ExecutionContext
from repro.tensor import no_grad
from repro.tensor.nn.module import Module
from repro.tensor.tensor import Tensor

#: type of the recurrent state threaded across partitions of one frame
ModelState = Dict[str, Any]


class DGNNModel(Module):
    """Base class for DTDG models trained one frame at a time."""

    #: registry name
    name: str = "dgnn"
    #: number of distinct aggregation passes per snapshot (GCN layers)
    num_gcn_layers: int = 1
    #: True when GCN weights evolve along the timeline (EvolveGCN), which
    #: rules out the locality-optimized weight reuse (§4.2)
    evolves_weights: bool = False
    #: GCN layer indices whose aggregation depends only on the raw input
    #: features (and is therefore reusable across frames/epochs, §4.4)
    reusable_aggregation_layers: Tuple[int, ...] = (0,)
    #: whether the adjacency must still be resident on the device when all
    #: reusable aggregations are served from the cache (True for models with
    #: deeper GCN stacks whose later layers re-aggregate hidden features)
    needs_topology_with_reuse: bool = True

    def __init__(self, in_features: int, hidden_features: int, out_features: int = 1) -> None:
        super().__init__()
        if in_features <= 0 or hidden_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        self.in_features = in_features
        self.hidden_features = hidden_features
        self.out_features = out_features

    # -- interface ------------------------------------------------------------
    def init_state(self, num_nodes: int) -> ModelState:
        """Fresh recurrent state for the start of a frame."""
        raise NotImplementedError

    def forward_partition(
        self,
        provider: AggregationProvider,
        features: Sequence[Tensor],
        state: ModelState,
        ctx: ExecutionContext,
    ) -> Tuple[List[Tensor], ModelState]:
        """Process one partition; returns per-snapshot predictions and new state."""
        raise NotImplementedError

    # -- convenience -------------------------------------------------------------
    def forward_frame(
        self,
        providers: Sequence[AggregationProvider],
        feature_groups: Sequence[Sequence[Tensor]],
        num_nodes: int,
        ctx: ExecutionContext,
    ) -> List[Tensor]:
        """Run a whole frame given its partitions' providers and features."""
        if len(providers) != len(feature_groups):
            raise ValueError("providers and feature groups must align")
        state = self.init_state(num_nodes)
        predictions: List[Tensor] = []
        for provider, features in zip(providers, feature_groups):
            outs, state = self.forward_partition(provider, list(features), state, ctx)
            predictions.extend(outs)
        return predictions

    def predict_frame(
        self,
        providers: Sequence[AggregationProvider],
        feature_groups: Sequence[Sequence[Tensor]],
        num_nodes: int,
        ctx: ExecutionContext,
    ) -> List[Tensor]:
        """Forward-only :meth:`forward_frame` (no autograd tape) for serving."""
        with no_grad():
            return self.forward_frame(providers, feature_groups, num_nodes, ctx)
