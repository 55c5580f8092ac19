"""Tests for the PiPAD runtime components (slicer, prep, reuse, tuner, parallel GNN)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DynamicTuner,
    GraphSlicer,
    OfflineAnalysis,
    PartitionKernels,
    PiPADConfig,
    PiPADTrainer,
    build_overlap_group,
)
from repro.core.datapipe import DataPipe
from repro.core import trainer as trainer_module
from repro.core import tuner as tuner_module
from repro.core.tuner import FrameProfile, capped_candidates
from repro.gpu import GPUSpec, PCIeSpec, SimulatedGPU
from repro.kernels import PyGCOOAggregation
from repro.nn import (
    AggregationProvider,
    ExecutionContext,
    ReuseManager,
    SnapshotKernels,
    mean_inverse_degree,
)
from repro.nn import aggregation as reuse_module
from repro.tensor import Tensor

SPEC = GPUSpec()
PCIE_GBS = PCIeSpec().bandwidth_gbs


class TestConfig:
    def test_defaults_valid(self):
        config = PiPADConfig()
        assert config.fixed_s_per is None
        assert config.preparing_epochs == 1

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            PiPADConfig(preparing_epochs=-1)
        with pytest.raises(ValueError):
            PiPADConfig(fixed_s_per=0)


class TestSlicer:

    def test_conversion_seconds_proportional_to_nnz(self, small_graph):
        slicer = GraphSlicer()
        a = slicer.conversion_seconds(small_graph[0].adjacency)
        assert a > 0
        assert slicer.conversion_seconds(small_graph[0].adjacency) == pytest.approx(a)


class TestDataPreparer:
    def test_partition_decomposition_exact(self, small_graph):
        pipe = DataPipe()
        group = small_graph.snapshots[:3]
        data = pipe.partition(group)
        assert data.size == 3
        assert 0.0 <= data.overlap_rate <= 1.0
        # overlap + exclusives reconstruct each snapshot
        for snapshot, exclusive in zip(group, data.overlap.exclusives):
            rebuilt = np.union1d(data.overlap.overlap.edge_keys(), exclusive.edge_keys())
            assert np.array_equal(rebuilt, snapshot.adjacency.edge_keys())

    def test_partition_caches_by_start_and_size(self, small_graph):
        pipe = DataPipe()
        group = small_graph.snapshots[:2]
        first = pipe.partition(group)
        seconds_after_first = pipe.preparer.total_extraction_seconds
        second = pipe.partition(group)
        assert first is second
        assert pipe.preparer.total_extraction_seconds == seconds_after_first

    def test_transfer_savings_vs_full_snapshots(self, small_graph):
        data = DataPipe().partition(small_graph.snapshots[:4])
        assert data.adjacency_bytes < sum(s.adjacency.nbytes for s in data.snapshots)

    def test_prepare_frame_covers_all_snapshots(self, small_graph):
        parts = DataPipe().preparer.prepare_frame(small_graph.snapshots[:6], s_per=4)
        assert [p.size for p in parts] == [4, 2]

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            DataPipe().partition([])


class TestReuseManager:
    def test_store_and_lookup(self):
        manager = ReuseManager(SimulatedGPU())
        assert manager.lookup(0) is None
        manager.store(0, np.ones((4, 2), dtype=np.float32))
        assert manager.lookup(0) is not None
        assert manager.cpu_hits == 1 and manager.misses == 1

    def test_gpu_buffer_is_a_quarter_of_free_memory(self):
        device = SimulatedGPU()
        assert reuse_module.GPU_BUFFER_FRACTION == 0.25
        assert ReuseManager(device).gpu_buffer_capacity() == int(
            device.spec.memory_bytes * 0.25
        )

    def test_disabled_manager_never_caches(self):
        manager = ReuseManager(SimulatedGPU(), enabled=False)
        manager.store(0, np.ones(2, dtype=np.float32))
        assert manager.lookup(0) is None
        assert not manager.has_cached(0)

    def test_gpu_residency_respects_capacity(self, monkeypatch):
        monkeypatch.setattr(reuse_module, "GPU_BUFFER_FRACTION", 0.5)
        device = SimulatedGPU()
        manager = ReuseManager(device)
        for t in range(4):
            manager.store(t, np.ones((8, 2), dtype=np.float32))
        resident = manager.plan_gpu_residency([0, 1, 2, 3], {t: 10**9 * 5 for t in range(4)})
        assert len(resident) <= 2  # 50% of 16 GB at 5 GB each
        assert all(manager.is_gpu_resident(t) for t in resident)

    def test_gpu_residency_in_use_order(self, monkeypatch):
        monkeypatch.setattr(reuse_module, "GPU_BUFFER_FRACTION", 0.5)
        manager = ReuseManager(SimulatedGPU())
        for t in range(3):
            manager.store(t, np.ones(4, dtype=np.float32))
        resident = manager.plan_gpu_residency([2, 0, 1], {t: 100 for t in range(3)})
        assert resident[0] == 2

    def test_stats_and_clear(self):
        manager = ReuseManager(SimulatedGPU())
        manager.store(1, np.ones(4, dtype=np.float32))
        manager.lookup(1)
        stats = manager.stats()
        assert stats["cpu_cached_snapshots"] == 1
        manager.clear()
        assert manager.lookup(1) is None

    def test_invalidate_drops_entries_and_residency(self):
        manager = ReuseManager(SimulatedGPU())
        for t in range(3):
            manager.store(t, np.ones(4, dtype=np.float32))
        manager.plan_gpu_residency([0, 1, 2], {t: 16 for t in range(3)})
        removed = manager.invalidate([0, 2, 99])
        assert removed == 2
        assert manager.lookup(0) is None and manager.lookup(2) is None
        assert not manager.is_gpu_resident(0) and not manager.is_gpu_resident(2)
        assert manager.has_cached(1)

    def test_topology_delta_forces_recomputation(self, small_graph):
        """A stale cache entry must not survive a topology change: after
        ``invalidate`` the provider recomputes against the new adjacency and
        produces the (different) correct result."""
        manager = ReuseManager(SimulatedGPU())
        old = small_graph[0]
        x = Tensor(old.features)
        provider = AggregationProvider(SnapshotKernels(old, PyGCOOAggregation, SPEC), cache=manager)
        (before,) = provider.aggregate_many(0, [x])
        assert manager.has_cached(old.timestep)

        # Simulate a delta hitting snapshot 0's topology: snapshot 1 has a
        # different edge set but keeps the timestep/version key.
        from repro.graph import GraphSnapshot

        changed = GraphSnapshot(
            adjacency=small_graph[1].adjacency,
            features=old.features,
            timestep=old.timestep,
        )
        # Without invalidation the stale result would be served verbatim.
        stale_provider = AggregationProvider(SnapshotKernels(changed, PyGCOOAggregation, SPEC), cache=manager)
        (stale,) = stale_provider.aggregate_many(0, [x])
        np.testing.assert_allclose(stale.data, before.data)

        manager.invalidate([old.timestep])
        misses = manager.misses
        fresh_provider = AggregationProvider(SnapshotKernels(changed, PyGCOOAggregation, SPEC), cache=manager)
        (fresh,) = fresh_provider.aggregate_many(0, [x])
        assert manager.misses == misses + 1
        assert not np.allclose(fresh.data, before.data)
        degree = changed.adjacency.row_nnz().astype(np.float32)
        expected = (
            old.features + changed.adjacency.matmul_dense(old.features)
        ) / (degree + 1.0)[:, None]
        np.testing.assert_allclose(fresh.data, expected, rtol=1e-5, atol=1e-6)


class TestOfflineAnalysisAndTuner:
    def test_build_overlap_group_hits_target_rate(self):
        overlap, exclusives, full = build_overlap_group(200, 400, 4, overlap_rate=0.6, seed=0)
        union = len(np.unique(np.concatenate([f.edge_keys() for f in full])))
        measured = overlap.nnz / union
        assert abs(measured - 0.6) < 0.1
        assert len(exclusives) == 4

    def test_speedup_increases_with_overlap_rate(self):
        analysis = OfflineAnalysis(spec=SPEC, num_nodes=256, avg_degree=4.0)
        low = analysis.speedup(4, 0.1, feature_dim=8)
        high = analysis.speedup(4, 0.9, feature_dim=8)
        assert high > low
        assert low > 0.8

    def test_speedup_table_covers_grid(self):
        analysis = OfflineAnalysis(spec=SPEC, num_nodes=128, avg_degree=3.0)
        table = analysis.speedup_table((2, 4), (0.3, 0.7), feature_dim=4)
        assert set(table) == {(2, 0.3), (2, 0.7), (4, 0.3), (4, 0.7)}

    def _profile(self, footprint, frame_activation=1e9, transfer=1e6, compute=1e-3):
        return FrameProfile(
            frame_index=0,
            overlap_rate_per_candidate={2: 0.8, 4: 0.8, 8: 0.8},
            per_snapshot_compute_seconds=compute,
            per_snapshot_transfer_bytes=transfer,
            per_snapshot_footprint_bytes=footprint,
            frame_activation_bytes=frame_activation,
        )

    def test_tuner_prefers_larger_s_per_when_memory_allows(self):
        tuner = DynamicTuner(SPEC, (2, 4, 8), feature_dim=8)
        decision = tuner.decide(self._profile(footprint=1e6), pcie_bandwidth_gbs=PCIE_GBS)
        assert decision.s_per == 8

    def test_tuner_respects_memory_bound(self):
        tuner = DynamicTuner(SPEC, (2, 4, 8), feature_dim=8)
        # 3 GB per snapshot: only 2 fit next to a 7 GB frame working set.
        decision = tuner.decide(
            self._profile(footprint=3e9, frame_activation=7e9), pcie_bandwidth_gbs=PCIE_GBS
        )
        assert decision.s_per == 2

    def test_tuner_falls_back_when_nothing_fits(self):
        tuner = DynamicTuner(SPEC, (2, 4, 8), feature_dim=8)
        decision = tuner.decide(self._profile(footprint=20e9), pcie_bandwidth_gbs=PCIE_GBS)
        assert decision.s_per == 1
        assert "memory" in decision.reason

    def test_tuner_avoids_pipeline_stall(self, monkeypatch):
        monkeypatch.setattr(tuner_module, "STALL_TOLERANCE", 1.0)
        tuner = DynamicTuner(SPEC, (2, 8), feature_dim=8)
        # Huge transfers relative to compute: all candidates stall, tuner says so.
        decision = tuner.decide(
            self._profile(footprint=1e6, transfer=1e9, compute=1e-6), pcie_bandwidth_gbs=PCIE_GBS
        )
        assert "stall" in decision.reason

    def test_tuner_requires_candidates(self):
        with pytest.raises(ValueError):
            DynamicTuner(SPEC, ())

    @pytest.mark.parametrize(
        "cap, expected",
        [(None, (2, 4, 8)), (8, (2, 4, 8)), (4, (2, 4)), (3, (2,)), (1, (1,))],
    )
    def test_candidates_capped_by_max_s_per_or_window(self, cap, expected):
        assert capped_candidates(cap) == expected


def one_by_one(snapshots, xs):
    """Each snapshot aggregated on its own, the canonical way."""
    return [
        AggregationProvider(SnapshotKernels(s, PyGCOOAggregation, SPEC)).aggregate_many(0, [x])[0]
        for s, x in zip(snapshots, xs)
    ]


class TestParallelProvider:
    def test_parallel_matches_sequential_numerics(self, small_graph):
        group = small_graph.snapshots[:3]
        data = DataPipe().partition(group)
        parallel = AggregationProvider(PartitionKernels(data, SPEC))
        xs = [Tensor(s.features) for s in group]
        parallel_out = parallel.aggregate_many(0, xs)
        sequential_out = one_by_one(group, xs)
        for a, b in zip(parallel_out, sequential_out):
            assert np.allclose(a.numpy(), b.numpy(), atol=1e-4)

    def test_parallel_gradients_flow(self, small_graph):
        group = small_graph.snapshots[:2]
        data = DataPipe().partition(group)
        provider = AggregationProvider(PartitionKernels(data, SPEC))
        xs = [Tensor(s.features, requires_grad=True) for s in group]
        outs = provider.aggregate_many(0, xs)
        (outs[0].sum() + outs[1].sum()).backward()
        assert all(x.grad is not None for x in xs)

    def test_parallel_uses_cache(self, small_graph):
        group = small_graph.snapshots[:2]
        data = DataPipe().partition(group)
        manager = ReuseManager(SimulatedGPU())
        provider = AggregationProvider(PartitionKernels(data, SPEC), cache=manager)
        xs = [Tensor(s.features) for s in group]
        provider.aggregate_many(0, xs)
        assert (manager.cpu_hits, manager.misses) == (0, 2)
        provider2 = AggregationProvider(PartitionKernels(data, SPEC), cache=manager)
        out_cached = provider2.aggregate_many(0, xs)
        assert (manager.cpu_hits, manager.misses) == (2, 2)
        out_fresh = AggregationProvider(PartitionKernels(data, SPEC)).aggregate_many(0, xs)
        for a, b in zip(out_cached, out_fresh):
            assert np.allclose(a.numpy(), b.numpy(), atol=1e-5)

    def test_single_snapshot_partition(self, small_graph):
        group = small_graph.snapshots[:1]
        data = DataPipe().partition(group)
        provider = AggregationProvider(PartitionKernels(data, SPEC))
        [out] = provider.aggregate_many(0, [Tensor(group[0].features)])
        [seq] = one_by_one(group, [Tensor(group[0].features)])
        assert np.allclose(out.numpy(), seq.numpy(), atol=1e-4)

    def test_csr_fallback_matches(self, small_graph):
        group = small_graph.snapshots[:2]
        data = DataPipe(use_sliced_csr=False).partition(group)
        provider = AggregationProvider(PartitionKernels(data, SPEC, use_sliced_csr=False))
        xs = [Tensor(s.features) for s in group]
        outs = provider.aggregate_many(0, xs)
        seq = one_by_one(group, xs)
        for a, b in zip(outs, seq):
            assert np.allclose(a.numpy(), b.numpy(), atol=1e-4)


    def test_partitions_share_each_snapshots_inverse_degree(self, small_graph):
        snapshots = small_graph.snapshots
        first = PartitionKernels(DataPipe().partition(snapshots[0:3]), SPEC)
        second = PartitionKernels(DataPipe().partition(snapshots[2:4]), SPEC)
        shared = first.inv_degree[2]
        assert shared is second.inv_degree[0]
        assert SnapshotKernels(snapshots[2], PyGCOOAggregation, SPEC).inv_degree[0] is shared
        expected = mean_inverse_degree(snapshots[2])
        assert [float(x).hex() for x in shared.data.ravel()] == [
            float(x).hex() for x in expected.ravel()
        ]


class TestTrainerKernelMemo:
    """A training run builds one kernel set per prepared partition and wraps
    it in a fresh provider every frame and epoch."""

    STEADY_EPOCHS = 3

    def _train(self, graph, config, monkeypatch):
        built = []

        class CountingKernels(PartitionKernels):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(trainer_module, "PartitionKernels", CountingKernels)
        providers = []

        class RecordingTrainer(PiPADTrainer):
            def _run_preprocessing(self):
                super()._run_preprocessing()
                # Frames 0 and 2 both hold a partition starting at timestep 2,
                # of two and of four snapshots.
                self._frame_s_per = {i: 4 if i == 2 else 2 for i in self._frame_s_per}

            def _make_provider(self, snapshots):
                provider = super()._make_provider(snapshots)
                if not self._preparing:
                    key = tuple(s.timestep for s in snapshots)
                    providers.append((self._epochs_run, key, provider))
                return provider

        trainer = RecordingTrainer(graph, config, PiPADConfig(preparing_epochs=1))
        trainer.train(epochs=1 + self.STEADY_EPOCHS)
        return trainer, built, providers

    def test_every_provider_of_a_partition_wraps_the_same_kernels(
        self, small_graph, trainer_config, monkeypatch
    ):
        _, _, providers = self._train(small_graph, trainer_config, monkeypatch)
        assert {epoch for epoch, _, _ in providers} == {1, 2, 3}
        by_partition = {}
        for _, key, provider in providers:
            by_partition.setdefault(key, []).append(provider)
            assert isinstance(provider.kernels, PartitionKernels)
            assert tuple(s.timestep for s in provider.kernels.snapshots) == key
        for key, group in by_partition.items():
            assert len(group) >= self.STEADY_EPOCHS, key
            assert all(p.kernels is group[0].kernels for p in group), key
            assert len({id(p) for p in group}) == len(group)

    def test_reuse_cache_counts_only_the_model_lookups(
        self, small_graph, trainer_config, monkeypatch
    ):
        trainer, _, _ = self._train(small_graph, trainer_config, monkeypatch)
        # One layer-0 lookup per snapshot of every frame and epoch; planning
        # a transfer asks the cache without counting.
        reuse = trainer.reuse
        epochs = 1 + self.STEADY_EPOCHS
        lookups = epochs * trainer.frames.num_frames * trainer.config.frame_size
        assert reuse.cpu_hits + reuse.gpu_hits + reuse.misses == lookups
        assert reuse.misses == len(small_graph.snapshots)

    def test_one_kernel_set_per_distinct_partition(
        self, small_graph, trainer_config, monkeypatch
    ):
        trainer, built, providers = self._train(small_graph, trainer_config, monkeypatch)
        keys = {key for _, key, _ in providers}
        assert {(2, 3), (2, 3, 4, 5)} <= keys
        assert len(built) == len(keys)
        assert {tuple(s.timestep for s in k.snapshots) for k in built} == keys
        # The run's one memo holds exactly these sets: preprocessing dropped
        # the canonical one-snapshot sets of the preparing epoch.
        assert sorted(map(id, trainer._kernel_sets.values())) == sorted(map(id, built))
        # One inverse-degree tensor per snapshot, however many sets hold it.
        timesteps = {t for key in keys for t in key}
        assert len({id(d) for k in built for d in k.inv_degree}) == len(timesteps)
