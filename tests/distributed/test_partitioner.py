"""Tests for node-wise graph sharding with halo bookkeeping, and for the
frame partitioner that shards snapshot groups across pipeline stages."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CSRMatrix, FramePartitioner, GraphPartitioner, GraphSnapshot


class TestPlan:
    def test_boundaries_cover_node_set(self, small_graph):
        for devices in (1, 2, 3, 4):
            plan = GraphPartitioner(devices).plan(small_graph.snapshots)
            assert plan[0] == 0 and plan[-1] == small_graph.num_nodes
            assert np.all(np.diff(plan) >= 1)
            assert len(plan) == devices + 1

    def test_plan_balances_edge_mass(self, small_graph):
        partitioner = GraphPartitioner(3)
        plan = partitioner.plan(small_graph.snapshots, node_weight=0.0)
        fractions = partitioner.edge_fractions(small_graph.snapshots, plan)
        # Contiguous ranges cannot be perfect, but no shard should be wild.
        assert fractions.max() < 0.6

    def test_node_dominated_plan_gives_uniform_ranges(self, small_graph):
        plan = GraphPartitioner(4).plan(small_graph.snapshots, node_weight=1e9)
        sizes = np.diff(plan)
        assert sizes.max() - sizes.min() <= 1

    def test_rejects_negative_node_weight(self, small_graph):
        with pytest.raises(ValueError, match="node_weight"):
            GraphPartitioner(2).plan(small_graph.snapshots, node_weight=-1.0)

    def test_rejects_more_devices_than_nodes(self, small_graph):
        with pytest.raises(ValueError):
            GraphPartitioner(small_graph.num_nodes + 1).plan(small_graph.snapshots)


class TestShards:
    def test_shard_union_reconstructs_snapshot(self, small_graph):
        """Acceptance invariant: shards ∪ halos == full graph."""
        partitioner = GraphPartitioner(4)
        snapshot = small_graph[0]
        shards = partitioner.shard_snapshot(snapshot)
        union = np.sort(np.concatenate([s.adjacency.edge_keys() for s in shards]))
        assert np.array_equal(union, snapshot.adjacency.edge_keys())

    def test_shards_are_disjoint(self, small_graph):
        shards = GraphPartitioner(3).shard_snapshot(small_graph[0])
        for a in range(len(shards)):
            for b in range(a + 1, len(shards)):
                inter = np.intersect1d(
                    shards[a].adjacency.edge_keys(), shards[b].adjacency.edge_keys()
                )
                assert len(inter) == 0

    def test_halo_nodes_are_exactly_remote_columns(self, small_graph):
        snapshot = small_graph[0]
        for shard in GraphPartitioner(4).shard_snapshot(snapshot):
            local = np.arange(shard.node_start, shard.node_stop)
            cols = np.unique(shard.adjacency.indices)
            expected = np.setdiff1d(cols, local)
            assert np.array_equal(shard.halo_nodes, expected)
            # Owned columns are never halo.
            assert not np.intersect1d(shard.halo_nodes, local).size

    def test_halo_feature_bytes(self, small_graph):
        shard = GraphPartitioner(2).shard_snapshot(small_graph[0])[0]
        dim = small_graph.feature_dim
        assert shard.halo_feature_bytes(dim) == shard.num_halo_nodes * dim * 4

    def test_multi_edge_columns_count_once_in_halo(self):
        """Regression: a remote column referenced through several edges (two
        rows here, plus a parallel multi-edge) must appear once in
        ``halo_nodes`` — its features are fetched once, not per edge — so
        ``num_halo_nodes``/``halo_feature_bytes`` do not over-count traffic."""
        # 4 nodes, 2 devices (nodes {0,1} | {2,3}).  Rows 0 and 1 both
        # reference remote node 3; row 0 references it through a duplicated
        # (multi-edge) column as well.
        indptr = np.array([0, 3, 5, 6, 7], dtype=np.int64)
        indices = np.array([1, 3, 3, 0, 3, 2, 0], dtype=np.int64)
        data = np.ones(len(indices), dtype=np.float32)
        adjacency = CSRMatrix(indptr=indptr, indices=indices, data=data, shape=(4, 4))
        snapshot = GraphSnapshot(
            adjacency=adjacency, features=np.zeros((4, 2), dtype=np.float32)
        )
        shard = GraphPartitioner(2).shard_snapshot(
            snapshot, np.array([0, 2, 4])
        )[0]
        assert shard.halo_nodes.tolist() == [3]
        assert shard.num_halo_nodes == 1
        assert shard.halo_feature_bytes(2) == 1 * 2 * 4

    def test_fractions_sum_to_one(self, small_graph):
        partitioner = GraphPartitioner(4)
        boundaries = partitioner.plan(small_graph.snapshots)
        assert partitioner.node_fractions(boundaries).sum() == pytest.approx(1.0)
        assert partitioner.edge_fractions(
            small_graph.snapshots, boundaries
        ).sum() == pytest.approx(1.0)


class TestFramePartitioner:
    def test_round_robin_interleaves_adjacent_groups(self):
        assignment = FramePartitioner(4).assign(8)
        assert assignment.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_blocked_keeps_contiguous_runs(self):
        assignment = FramePartitioner(2, schedule="blocked").assign(6)
        assert assignment.tolist() == [0, 0, 0, 1, 1, 1]

    def test_blocked_chunk_sizes_differ_by_at_most_one(self):
        for devices in (2, 3, 4):
            for groups in (5, 7, 9):
                counts = np.bincount(
                    FramePartitioner(devices, schedule="blocked").assign(groups),
                    minlength=devices,
                )
                assert counts.max() - counts.min() <= 1

    def test_every_group_owned_and_in_range(self):
        for schedule in ("round_robin", "blocked"):
            assignment = FramePartitioner(3, schedule=schedule).assign(7)
            assert len(assignment) == 7
            assert assignment.min() >= 0 and assignment.max() < 3

    def test_stages_partition_the_groups(self):
        stages = FramePartitioner(3).stages(8)
        owned = sorted(g for stage in stages for g in stage.groups)
        assert owned == list(range(8))
        assert [stage.device for stage in stages] == [0, 1, 2]

    def test_fewer_groups_than_devices_leaves_stages_empty(self):
        stages = FramePartitioner(4).stages(2)
        assert [stage.num_groups for stage in stages] == [1, 1, 0, 0]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            FramePartitioner(2, schedule="random")
        with pytest.raises(ValueError):
            FramePartitioner(0)
        with pytest.raises(ValueError):
            FramePartitioner(2).assign(0)
