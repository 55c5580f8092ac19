"""T-GCN (Zhao et al., T-ITS'19) — Fig. 2(c) of the paper.

An *integrated* DGNN: the GEMMs inside a GRU cell are replaced by graph
convolutions of the input features, and the hidden state propagates along the
timeline.  All graph aggregations operate on the raw input features, so with
inter-frame reuse every aggregation disappears (§5.2's observation that
PyGT-R catches up with PyGT-G on T-GCN); the three gate updates share one
aggregation result per snapshot.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.nn.aggregation import AggregationProvider
from repro.nn.base_model import DGNNModel, ModelState
from repro.nn.context import ExecutionContext
from repro.nn.gcn import GCNUpdate
from repro.tensor import ops
from repro.tensor.function import op_scope
from repro.tensor.nn.linear import Linear
from repro.tensor.nn.module import Parameter
from repro.tensor.nn import init
from repro.tensor.tensor import Tensor
from repro.utils.rng import SeedLike, as_rng


class TGCN(DGNNModel):
    """Graph-convolutional GRU with a linear readout."""

    name = "tgcn"
    num_gcn_layers = 1
    evolves_weights = False
    reusable_aggregation_layers = (0,)
    # With every aggregation served from the reuse cache, no topology needs to
    # stay resident: the remaining computation is dense.
    needs_topology_with_reuse = False

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        out_features: int = 1,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__(in_features, hidden_features, out_features)
        rng = as_rng(seed)
        # Three graph-convolution updates (update gate, reset gate, candidate)
        # share one aggregation of the input features per snapshot.
        self.gc_update = GCNUpdate(in_features, hidden_features, seed=rng)
        self.gc_reset = GCNUpdate(in_features, hidden_features, seed=rng)
        self.gc_candidate = GCNUpdate(in_features, hidden_features, seed=rng)
        # Recurrent (hidden-state) weights of the three gates.
        self.hidden_update = Parameter(
            init.xavier_uniform((hidden_features, hidden_features), seed=rng), name="hidden_update"
        )
        self.hidden_reset = Parameter(
            init.xavier_uniform((hidden_features, hidden_features), seed=rng), name="hidden_reset"
        )
        self.hidden_candidate = Parameter(
            init.xavier_uniform((hidden_features, hidden_features), seed=rng),
            name="hidden_candidate",
        )
        self.readout = Linear(hidden_features, out_features, seed=rng)

    def init_state(self, num_nodes: int) -> ModelState:
        return {"hidden": None}

    def _initial_hidden(self, num_nodes: int) -> Tensor:
        return Tensor(init.zeros(num_nodes, self.hidden_features))

    def forward_partition(
        self,
        provider: AggregationProvider,
        features: Sequence[Tensor],
        state: ModelState,
        ctx: ExecutionContext,
    ) -> Tuple[List[Tensor], ModelState]:
        aggregated = provider.aggregate_many(0, list(features))
        hidden: Optional[Tensor] = state.get("hidden")
        if hidden is None:
            hidden = self._initial_hidden(features[0].shape[0])

        predictions: List[Tensor] = []
        for agg in aggregated:
            # Graph-convolutional gate inputs (time-independent part).
            gate_u_in = self.gc_update(agg, ctx)
            gate_r_in = self.gc_reset(agg, ctx)
            gate_c_in = self.gc_candidate(agg, ctx)
            # Recurrent part of the gates (time-dependent).
            with op_scope("rnn"):
                update_gate = ops.sigmoid(gate_u_in + hidden @ self.hidden_update)
                reset_gate = ops.sigmoid(gate_r_in + hidden @ self.hidden_reset)
                candidate = ops.tanh(gate_c_in + (reset_gate * hidden) @ self.hidden_candidate)
                hidden = update_gate * hidden + (Tensor(1.0) - update_gate) * candidate
            with op_scope("other"):
                predictions.append(self.readout(hidden))
        return predictions, {"hidden": hidden}
