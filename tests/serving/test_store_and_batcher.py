"""Tests for the serving-side graph state: deltas, store, batcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import extract_overlap
from repro.serving import (
    GraphDelta,
    IncrementalSnapshotStore,
    InferenceRequest,
    MicroBatcher,
    random_delta,
    synthesize_serving_trace,
)


class TestGraphDelta:
    def test_empty_delta(self):
        delta = GraphDelta.empty()
        assert delta.num_added == delta.num_removed == delta.num_feature_updates == 0

    def test_edge_keys_roundtrip(self):
        delta = GraphDelta(added_edges=np.array([[1, 2], [3, 4]]))
        assert delta.added_keys(10).tolist() == [12, 34]

    def test_random_delta_evolves_keys(self, small_graph):
        rng = np.random.default_rng(0)
        keys = small_graph[0].adjacency.edge_keys()
        delta, new_keys = random_delta(keys, small_graph.num_nodes, rng)
        assert delta.num_added == delta.num_removed > 0
        assert len(new_keys) == len(keys)
        assert not np.array_equal(new_keys, keys)


class TestIncrementalSnapshotStore:
    def test_seeds_from_dynamic_graph_tail(self, small_graph, make_snapshot_store):
        store = make_snapshot_store(window=4)
        assert store.window_size == 4
        assert store.version == small_graph[-1].timestep
        assert store.window_versions() == [s.timestep for s in small_graph.snapshots[-4:]]

    def test_apply_advances_version_and_slides_window(self, make_snapshot_store):
        store = make_snapshot_store(window=3)
        before = store.window_versions()
        report = store.apply(GraphDelta.empty())
        assert report.version == before[-1] + 1
        assert report.evicted_version == before[0]
        assert store.window_versions() == before[1:] + [report.version]

    def test_empty_delta_touches_nothing_and_shares_adjacency(self, make_snapshot_store):
        store = make_snapshot_store()
        head_before = store.head
        report = store.apply(GraphDelta.empty())
        assert report.num_touched == 0
        # No topology change: the new version shares the adjacency object.
        assert store.head.adjacency is head_before.adjacency

    def test_edge_delta_touches_source_rows(self, make_snapshot_store):
        store = make_snapshot_store()
        n = store.num_nodes
        keys = store.head.adjacency.edge_keys()
        victim = int(keys[0])
        delta = GraphDelta(removed_edges=np.array([[victim // n, victim % n]]))
        report = store.apply(delta)
        assert report.num_removed == 1
        assert victim // n in report.touched_rows.tolist()
        assert victim not in store.head.adjacency.edge_keys().tolist()

    def test_feature_delta_touches_in_neighbors(self, make_snapshot_store):
        store = make_snapshot_store()
        n = store.num_nodes
        keys = store.head.adjacency.edge_keys()
        target = int(keys[0] % n)  # a node that has at least one in-neighbor
        delta = GraphDelta(feature_updates={target: np.zeros(store.feature_dim)})
        report = store.apply(delta)
        touched = set(report.touched_rows.tolist())
        assert target in touched
        in_neighbors = {int(k // n) for k in keys if int(k % n) == target}
        assert in_neighbors <= touched
        assert np.allclose(store.head.features[target], 0.0)

    def test_decomposition_matches_from_scratch_after_deltas(self, make_snapshot_store):
        store = make_snapshot_store(window=4)
        rng = np.random.default_rng(1)
        for _ in range(6):
            delta, _ = random_delta(
                store.head.adjacency.edge_keys(), store.num_nodes, rng,
                feature_dim=store.feature_dim,
            )
            store.apply(delta)
        incremental = store.decomposition()
        scratch = extract_overlap([s.adjacency for s in store.window_snapshots()])
        assert np.array_equal(incremental.overlap.edge_keys(), scratch.overlap.edge_keys())
        for a, b in zip(incremental.exclusives, scratch.exclusives):
            assert np.array_equal(a.edge_keys(), b.edge_keys())
        assert incremental.overlap_rate == pytest.approx(scratch.overlap_rate)

    def test_partition_decomposition_reconstructs_members(self, make_snapshot_store):
        store = make_snapshot_store(window=4)
        sub = store.partition_decomposition([1, 2])
        snapshots = store.window_snapshots()
        for position, exclusive in zip([1, 2], sub.exclusives):
            rebuilt = np.union1d(sub.overlap.edge_keys(), exclusive.edge_keys())
            assert np.array_equal(rebuilt, snapshots[position].adjacency.edge_keys())

    def test_single_snapshot_store(self, small_graph):
        store = IncrementalSnapshotStore(small_graph[0], window=2)
        assert store.window_size == 1
        assert store.decomposition().overlap_rate == pytest.approx(1.0)
        store.apply(GraphDelta.empty())
        assert store.window_size == 2


def slide(store, rng, deltas):
    """Apply ``deltas`` random edge/feature deltas to ``store``."""
    for _ in range(deltas):
        delta, _ = random_delta(
            store.head.adjacency.edge_keys(), store.num_nodes, rng,
            feature_dim=store.feature_dim,
        )
        store.apply(delta)


class TestSharedWindowState:
    """Window state keyed by snapshot versions, shared and evicted with them."""

    S_PER = (1, 2, 3, 4)

    def query_every_group(self, store):
        for s_per in self.S_PER:
            for positions in store.partition_positions(s_per):
                store.partition_decomposition(positions)

    def test_partition_positions_cover_the_window_in_order(self, make_snapshot_store):
        store = make_snapshot_store(window=4)
        assert store.partition_positions(3) == [[0, 1, 2], [3]]
        assert store.partition_positions(8) == [[0, 1, 2, 3]]
        assert store.partition_positions(0) == [[0], [1], [2], [3]]

    def test_cached_state_matches_extraction_from_scratch(self, make_snapshot_store):
        store = make_snapshot_store(window=4)
        rng = np.random.default_rng(5)
        for _ in range(7):  # more deltas than the window holds
            self.query_every_group(store)
            slide(store, rng, 1)
        self.query_every_group(store)
        kinds = {kind for _, kind in store._shared}
        assert kinds == {"decomposition"}
        for (versions, kind), value in store._shared.items():
            scratch = extract_overlap([store.snapshot(v).adjacency for v in versions])
            assert value.overlap_rate.hex() == scratch.overlap_rate.hex()
            assert np.array_equal(value.overlap.edge_keys(), scratch.overlap.edge_keys())
            assert len(value.exclusives) == len(scratch.exclusives)
            for cached, fresh in zip(value.exclusives, scratch.exclusives):
                assert np.array_equal(cached.edge_keys(), fresh.edge_keys())

    def test_no_entry_outlives_its_versions(self, make_snapshot_store):
        store = make_snapshot_store(window=4)
        rng = np.random.default_rng(7)
        for _ in range(9):
            self.query_every_group(store)
            store.shared((store.version,), "head", lambda: object())
            slide(store, rng, 1)
            window = set(store.window_versions())
            assert store._shared
            for versions, _ in store._shared:
                assert set(versions) <= window

    def test_entries_survive_deltas_that_keep_their_versions(self, make_snapshot_store):
        store = make_snapshot_store(window=4)
        head = store.version
        built = store.shared((head,), "head", lambda: object())
        slide(store, np.random.default_rng(8), 3)
        assert store.shared((head,), "head", lambda: object()) is built
        slide(store, np.random.default_rng(9), 1)
        assert head not in store.window_versions()
        assert store.shared((head,), "head", lambda: object()) is not built


class TestSynthesizedTrace:
    def test_trace_is_reproducible_and_sorted(self, small_graph):
        a = synthesize_serving_trace(small_graph[0], 40, seed=9)
        b = synthesize_serving_trace(small_graph[0], 40, seed=9)
        assert [e.kind for e in a] == [e.kind for e in b]
        times = [e.time for e in a]
        assert times == sorted(times)
        assert {e.kind for e in a} == {"delta", "request"}


class TestMicroBatcher:
    def request(self, rid, nodes, at):
        return InferenceRequest(request_id=rid, node_ids=np.asarray(nodes), arrival_time=at)

    def test_cuts_on_max_requests(self):
        batcher = MicroBatcher(max_requests=2, max_delay_ms=1000.0)
        batcher.submit(self.request(0, [1], 0.0))
        assert not batcher.ready(0.0)
        batcher.submit(self.request(1, [2], 0.0))
        batches = batcher.drain(0.0)
        assert len(batches) == 1 and batches[0].size == 2
        assert batcher.pending == 0

    def test_cuts_on_delay(self):
        batcher = MicroBatcher(max_requests=100, max_delay_ms=1.0)
        batcher.submit(self.request(0, [1], 0.0))
        assert batcher.drain(0.0005) == []
        batches = batcher.drain(0.002)
        assert len(batches) == 1

    def test_force_drains_everything(self):
        batcher = MicroBatcher(max_requests=100, max_delay_ms=1000.0)
        for i in range(5):
            batcher.submit(self.request(i, [i], 0.0))
        batches = batcher.drain(0.0, force=True)
        assert sum(b.size for b in batches) == 5

    def test_batch_node_union_deduplicates(self):
        batcher = MicroBatcher(max_requests=2, max_delay_ms=0.0)
        batcher.submit(self.request(0, [3, 1], 0.0))
        batcher.submit(self.request(1, [1, 2], 0.0))
        (batch,) = batcher.drain(0.0)
        assert batch.node_ids.tolist() == [1, 2, 3]
