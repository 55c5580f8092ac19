"""Tests for overlap extraction, smoothening, generators, datasets and stats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    DATASET_ORDER,
    CSRMatrix,
    GeneratorConfig,
    IncrementalOverlapTracker,
    apply_edge_life,
    change_rate,
    extract_overlap,
    generate_dynamic_graph,
    get_dataset_spec,
    load_dataset,
    pairwise_overlap_rate,
    refine_overlap,
    summarize,
)
from repro.graph.stats import DegreeStats, format_sizes


def make_adj(keys, n=20):
    return CSRMatrix.from_edge_keys(np.asarray(sorted(keys), dtype=np.int64), (n, n))


class TestOverlap:
    def test_identical_snapshots_full_overlap(self):
        adj = make_adj([1, 5, 9])
        result = extract_overlap([adj, adj, adj])
        assert result.overlap_rate == pytest.approx(1.0)
        assert all(e.nnz == 0 for e in result.exclusives)

    def test_disjoint_snapshots_zero_overlap(self):
        a, b = make_adj([1, 2]), make_adj([3, 4])
        result = extract_overlap([a, b])
        assert result.overlap.nnz == 0
        assert result.overlap_rate == 0.0

    def test_reconstruction_is_exact(self, small_graph):
        adjs = [small_graph[i].adjacency for i in range(4)]
        result = extract_overlap(adjs)
        for original, exclusive in zip(adjs, result.exclusives):
            rebuilt = np.union1d(result.overlap.edge_keys(), exclusive.edge_keys())
            assert np.array_equal(rebuilt, original.edge_keys())

    def test_pairwise_and_change_rate_complementary(self):
        a, b = make_adj([1, 2, 3]), make_adj([2, 3, 4])
        assert pairwise_overlap_rate(a, b) == pytest.approx(0.5)
        assert change_rate(a, b) == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            extract_overlap([make_adj([1], n=10), make_adj([1], n=20)])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            extract_overlap([])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 500), group=st.integers(2, 5))
    def test_property_overlap_is_subset_and_exact(self, seed, group):
        """Overlap ∪ exclusive_i reconstructs snapshot i; overlap ⊆ every snapshot."""
        rng = np.random.default_rng(seed)
        adjs = []
        base = rng.choice(400, size=40, replace=False).astype(np.int64)
        for _ in range(group):
            extra = rng.choice(400, size=10, replace=False).astype(np.int64)
            adjs.append(make_adj(np.union1d(base[: rng.integers(10, 40)], extra)))
        result = extract_overlap(adjs)
        overlap_keys = result.overlap.edge_keys()
        for adj, exclusive in zip(adjs, result.exclusives):
            keys = adj.edge_keys()
            assert np.all(np.isin(overlap_keys, keys))
            assert np.array_equal(np.union1d(overlap_keys, exclusive.edge_keys()), keys)
            assert len(np.intersect1d(overlap_keys, exclusive.edge_keys())) == 0


class TestIncrementalOverlapTracker:
    def test_empty_delta_keeps_full_overlap(self):
        """Pushing an unchanged adjacency (empty delta) leaves the overlap
        equal to the snapshot itself and all exclusives empty."""
        adj = make_adj([1, 5, 9])
        tracker = IncrementalOverlapTracker(adj.shape, capacity=3)
        for version in range(3):
            tracker.push(version, adj)
        result = tracker.decomposition()
        assert result.overlap_rate == pytest.approx(1.0)
        assert np.array_equal(result.overlap.edge_keys(), adj.edge_keys())
        assert all(e.nnz == 0 for e in result.exclusives)

    def test_delta_removing_overlap_edge_demotes_it(self):
        """An edge shared by the whole window leaves the overlap as soon as
        one pushed version drops it."""
        tracker = IncrementalOverlapTracker((20, 20), capacity=3)
        tracker.push(0, make_adj([1, 5, 9]))
        tracker.push(1, make_adj([1, 5, 9]))
        assert 5 in tracker.decomposition().overlap.edge_keys().tolist()
        tracker.push(2, make_adj([1, 9]))  # delta removed edge key 5
        result = tracker.decomposition()
        assert 5 not in result.overlap.edge_keys().tolist()
        assert result.overlap.edge_keys().tolist() == [1, 9]
        # The survivors still hold 5 in their exclusives.
        assert 5 in result.exclusives[0].edge_keys().tolist()
        assert 5 in result.exclusives[1].edge_keys().tolist()
        assert result.exclusives[2].nnz == 0

    def test_eviction_can_grow_overlap(self):
        """Evicting the one window member that lacked an edge promotes that
        edge back into the intersection."""
        tracker = IncrementalOverlapTracker((20, 20), capacity=2)
        tracker.push(0, make_adj([1, 9]))  # lacks 5
        tracker.push(1, make_adj([1, 5, 9]))
        assert 5 not in tracker.decomposition().overlap.edge_keys().tolist()
        evicted = tracker.push(2, make_adj([1, 5, 9]))
        assert evicted == 0
        assert 5 in tracker.decomposition().overlap.edge_keys().tolist()

    def test_single_snapshot_window(self):
        """A single-snapshot partition is pure overlap (rate 1, no exclusive)."""
        adj = make_adj([2, 7])
        tracker = IncrementalOverlapTracker(adj.shape, capacity=4)
        tracker.push(0, adj)
        result = tracker.decomposition()
        assert result.group_size == 1
        assert result.overlap_rate == pytest.approx(1.0)
        assert np.array_equal(result.overlap.edge_keys(), adj.edge_keys())
        assert result.exclusives[0].nnz == 0

    def test_matches_extract_overlap_under_random_churn(self, small_graph):
        tracker = IncrementalOverlapTracker(
            small_graph[0].adjacency.shape, capacity=4
        )
        window = []
        for snap in small_graph.snapshots:
            tracker.push(snap.timestep, snap.adjacency)
            window.append(snap.adjacency)
            window = window[-4:]
            scratch = extract_overlap(window)
            incremental = tracker.decomposition()
            assert np.array_equal(
                incremental.overlap.edge_keys(), scratch.overlap.edge_keys()
            )
            assert incremental.overlap_rate == pytest.approx(scratch.overlap_rate)

    def test_empty_window_rejected(self):
        tracker = IncrementalOverlapTracker((4, 4), capacity=2)
        with pytest.raises(ValueError):
            tracker.decomposition()


class TestRefineOverlap:
    def test_subgroup_matches_direct_extraction(self, small_graph):
        adjs = [small_graph[i].adjacency for i in range(4)]
        full = extract_overlap(adjs)
        for subset in ([0, 1], [1, 2, 3], [2]):
            refined = refine_overlap(full, subset)
            direct = extract_overlap([adjs[i] for i in subset])
            assert np.array_equal(
                refined.overlap.edge_keys(), direct.overlap.edge_keys()
            )
            for a, b in zip(refined.exclusives, direct.exclusives):
                assert np.array_equal(a.edge_keys(), b.edge_keys())
            assert refined.overlap_rate == pytest.approx(direct.overlap_rate)

    def test_single_member_is_pure_overlap(self, small_graph):
        adjs = [small_graph[i].adjacency for i in range(3)]
        full = extract_overlap(adjs)
        refined = refine_overlap(full, [1])
        assert np.array_equal(refined.overlap.edge_keys(), adjs[1].edge_keys())
        assert refined.exclusives[0].nnz == 0
        assert refined.overlap_rate == pytest.approx(1.0)

    def test_invalid_indices_rejected(self, small_graph):
        full = extract_overlap([small_graph[0].adjacency, small_graph[1].adjacency])
        with pytest.raises(ValueError):
            refine_overlap(full, [])
        with pytest.raises(IndexError):
            refine_overlap(full, [5])


class TestSmoothing:
    def test_edge_life_one_is_identity(self, small_graph):
        adjs = [s.adjacency for s in small_graph.snapshots[:3]]
        result = apply_edge_life(adjs, 1)
        assert all(a is b for a, b in zip(result, adjs))

    def test_edge_life_unions_previous_edges(self):
        a, b = make_adj([1]), make_adj([2])
        smoothened = apply_edge_life([a, b], edge_life=2)
        assert set(smoothened[1].edge_keys().tolist()) == {1, 2}

    def test_invalid_life_rejected(self):
        with pytest.raises(ValueError):
            apply_edge_life([make_adj([1])], 0)


class TestGenerators:
    def test_change_rate_close_to_target(self):
        config = GeneratorConfig(
            num_nodes=200, avg_degree=4, feature_dim=2, num_snapshots=8, change_rate=0.2
        )
        graph = generate_dynamic_graph(config, seed=0)
        assert abs(graph.average_change_rate() - 0.2) < 0.1

    def test_static_topology_never_changes(self):
        config = GeneratorConfig(
            num_nodes=50, avg_degree=3, feature_dim=2, num_snapshots=5,
            change_rate=0.0, topology="static",
        )
        graph = generate_dynamic_graph(config, seed=0)
        assert graph.average_change_rate() == pytest.approx(0.0)

    def test_deterministic_given_seed(self):
        config = GeneratorConfig(num_nodes=40, avg_degree=2, feature_dim=3, num_snapshots=4)
        a = generate_dynamic_graph(config, seed=9)
        b = generate_dynamic_graph(config, seed=9)
        assert np.array_equal(a[2].adjacency.edge_keys(), b[2].adjacency.edge_keys())
        assert np.allclose(a[2].features, b[2].features)

    def test_all_topologies_produce_graphs(self):
        for topology in ("preferential", "uniform", "community", "static"):
            config = GeneratorConfig(
                num_nodes=30, avg_degree=2, feature_dim=2, num_snapshots=3, topology=topology
            )
            graph = generate_dynamic_graph(config, seed=1)
            assert graph.total_edges > 0

    def test_targets_present_and_finite(self, small_graph):
        for snapshot in small_graph:
            assert snapshot.targets is not None
            assert np.isfinite(snapshot.targets).all()

    def test_invalid_topology_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(num_nodes=10, avg_degree=1, feature_dim=1, num_snapshots=2, topology="x")


class TestDatasets:
    def test_registry_has_seven_datasets(self):
        assert len(DATASET_ORDER) == 7

    def test_spec_lookup_case_insensitive(self):
        assert get_dataset_spec("HepTh").name == "hepth"
        with pytest.raises(KeyError):
            get_dataset_spec("nope")

    def test_load_dataset_respects_overrides(self):
        graph = load_dataset("pems08", num_snapshots=6)
        assert graph.num_snapshots == 6
        assert graph.num_nodes == get_dataset_spec("pems08").config.num_nodes

    def test_metadata_populated(self):
        graph = load_dataset("hepth", num_snapshots=5)
        assert graph.metadata["dataset"] == "hepth"
        assert graph.metadata["hidden_dim"] == 32
        assert graph.metadata["max_s_per"] == 8

    def test_large_datasets_capped_at_two(self):
        graph = load_dataset("flickr", num_snapshots=4)
        assert graph.metadata["max_s_per"] == 2

    def test_feature_dims_match_paper_setting(self):
        for name in DATASET_ORDER:
            spec = get_dataset_spec(name)
            assert spec.config.feature_dim in (2, 16)
            assert spec.hidden_dim == (6 if spec.config.feature_dim == 2 else 32)


class TestStats:
    def test_degree_stats(self, random_csr):
        stats = DegreeStats.from_adjacency(random_csr)
        assert stats.mean == pytest.approx(random_csr.nnz / random_csr.num_rows)
        assert 0.0 <= stats.gini <= 1.0

    def test_format_sizes_keys(self, random_csr):
        sizes = format_sizes(random_csr)
        assert sizes["csr_bytes"] <= sizes["sliced_csr_bytes"]

    def test_summarize(self, small_graph):
        summary = summarize(small_graph)
        assert summary["num_nodes"] == 60
        assert 0.0 <= summary["avg_change_rate"] <= 1.0
        assert summary["total_edges"] > 0
