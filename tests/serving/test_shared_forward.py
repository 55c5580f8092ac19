"""The serving forward pass is shared through the store, yet exact per replica.

Replicas of one store share a forward pass when they see the same window
with bit-identical cached aggregations.  Each must still get what it would
have computed alone: the same prediction bits, the same kernel costs and
the same reuse hits and misses against its own cache.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core import DataPreparer, ReuseManager
from repro.gpu import GPUSpec, SimulatedGPU
from repro.nn import build_model
from repro.serving import IncrementalSnapshotStore, random_delta
from repro.serving.session import InferenceSession


def make_session(model, store):
    device = SimulatedGPU(GPUSpec())
    return InferenceSession(
        model, store, device, reuse=ReuseManager(device), preparer=DataPreparer()
    )


def outcome(session, nodes, s_per):
    """Predictions as ``float.hex``, costs field by field and reuse counts."""
    predictions, costs = session.predict(nodes, s_per=s_per)
    reuse = session.reuse
    return (
        [float(x).hex() for x in predictions.ravel()],
        [dataclasses.astuple(cost) for cost in costs],
        (reuse.cpu_hits, reuse.gpu_hits, reuse.misses),
    )


class TestSharedForwardPass:
    def test_caches_of_different_provenance_match_unshared_sessions(self, small_graph):
        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        shared = IncrementalSnapshotStore(small_graph, window=4)
        stores = [shared, IncrementalSnapshotStore(small_graph, window=4),
                  IncrementalSnapshotStore(small_graph, window=4)]
        first, second = make_session(model, shared), make_session(model, shared)
        # Each replica's twin runs alone on an unshared copy of the store.
        pairs = [(first, make_session(model, stores[1])),
                 (second, make_session(model, stores[2]))]
        nodes = np.arange(small_graph.num_nodes)

        def step(index, s_per):
            replica, alone = pairs[index]
            assert outcome(replica, nodes, s_per) == outcome(alone, nodes, s_per)

        # The first replica caches the window at S_per = 1; after a delta it
        # patches the head from that cache.  The second replica was cold, so
        # it computes the whole new window at S_per = 2.
        step(0, 1)
        rng = np.random.default_rng(5)
        delta, _ = random_delta(
            shared.head.adjacency.edge_keys(), shared.num_nodes, rng,
            feature_dim=shared.feature_dim,
        )
        for store, sessions in ((shared, (first, second)), (stores[1], (pairs[0][1],)),
                                (stores[2], (pairs[1][1],))):
            report = store.apply(delta)
            for session in sessions:
                session.refresh(report)
        step(1, 2)
        window = shared.window_versions()
        assert [v for v in window if first.reuse.peek(v) is None] == []
        assert any(
            first.reuse.peek(v).tobytes() != second.reuse.peek(v).tobytes() for v in window
        )
        for s_per in (4, 2, 1, 2):
            step(0, s_per)
            step(1, s_per)

    def test_replicas_with_equal_caches_run_one_pass(self, small_graph):
        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        store = IncrementalSnapshotStore(small_graph, window=4)
        first, second = make_session(model, store), make_session(model, store)
        nodes = np.arange(7)
        cold = [first.predict(nodes, s_per=2), second.predict(nodes, s_per=2)]
        assert cold[0][0].tobytes() == cold[1][0].tobytes()
        assert cold[0][1] == cold[1][1] and cold[0][1] is not cold[1][1]
        # Both replicas cache the very arrays of the one pass, read-only.
        for version in store.window_versions():
            cached = first.reuse.peek(version)
            assert cached is second.reuse.peek(version)
            assert not cached.flags.writeable
        assert sum(kind[0] == "forward" for _, kind in store._shared) == 1
