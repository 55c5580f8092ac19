"""Tests for the DGNN models and the aggregation provider."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.datapipe import DataPipe
from repro.core.parallel_gnn import PartitionKernels
from repro.gpu import GPUSpec
from repro.graph import CSRMatrix, GraphSnapshot
from repro.kernels.spmm_coo import PyGCOOAggregation
from repro.kernels.spmm_csr import GESpMMAggregation
from repro.nn import (
    AggregationProvider,
    DictAggregationCache,
    EvolveGCN,
    ExecutionContext,
    GCNUpdate,
    MODEL_REGISTRY,
    MPNNLSTM,
    SnapshotKernels,
    TGCN,
    build_model,
    mean_inverse_degree,
)
from repro.tensor import Tensor
from repro.tensor.nn.loss import mse_loss

SPEC = GPUSpec()


def features_of(snapshots):
    return [Tensor(s.features) for s in snapshots]


def snapshot_provider(snapshot, kernel_name="coo", **kwargs):
    """The canonical one-snapshot provider over ``snapshot``."""
    return AggregationProvider(SnapshotKernels(snapshot, kernel_name, SPEC), **kwargs)


class TestProviders:
    def test_snapshot_aggregation_matches_mean_normalization(self, small_graph):
        snapshot = small_graph[0]
        provider = snapshot_provider(snapshot)
        [result] = provider.aggregate_many(0, [Tensor(snapshot.features)])
        dense = snapshot.adjacency.to_dense()
        expected = (dense @ snapshot.features + snapshot.features) * mean_inverse_degree(snapshot)
        assert np.allclose(result.numpy(), expected, atol=1e-4)

    def test_kernel_flavours_agree(self, small_graph):
        snapshot = small_graph[1]
        outs = []
        for kernel in ("coo", "gespmm", "sliced"):
            provider = snapshot_provider(snapshot, kernel)
            outs.append(provider.aggregate_many(0, [Tensor(snapshot.features)])[0].numpy())
        assert np.allclose(outs[0], outs[1], atol=1e-4)
        assert np.allclose(outs[0], outs[2], atol=1e-4)

    def test_edgeless_snapshot_aggregates_its_self_term(self, small_graph):
        snapshot = small_graph[0]
        edgeless = GraphSnapshot(
            adjacency=CSRMatrix.from_edges(
                np.zeros(0), np.zeros(0), (snapshot.num_nodes, snapshot.num_nodes)
            ),
            features=snapshot.features,
            timestep=snapshot.timestep,
        )
        kernels = SnapshotKernels(edgeless, "coo", SPEC)
        assert kernels.overlap is None and kernels.exclusive(0) is None
        [result] = AggregationProvider(kernels).aggregate_many(0, [Tensor(edgeless.features)])
        assert np.array_equal(result.numpy(), edgeless.features)

    def test_snapshot_set_is_a_partition_of_one(self, small_graph):
        snapshot = small_graph[0]
        kernels = SnapshotKernels(snapshot, "gespmm", SPEC)
        assert kernels.snapshots == (snapshot,)
        assert kernels.overlap is None
        assert isinstance(kernels.exclusive(0), GESpMMAggregation)
        assert isinstance(SnapshotKernels(snapshot).exclusive(0), PyGCOOAggregation)
        assert kernels.inv_degree == [snapshot._inverse_degree]

    def test_cache_hit_skips_recompute_and_matches(self, small_graph):
        snapshot = small_graph[2]
        cache = DictAggregationCache()
        provider = snapshot_provider(snapshot, cache=cache)
        first = provider.aggregate_many(0, [Tensor(snapshot.features)])[0].numpy()
        assert len(cache) == 1
        assert (provider.cache_hits, provider.cache_misses) == (0, 1)
        second_provider = snapshot_provider(snapshot, cache=cache)
        second = second_provider.aggregate_many(0, [Tensor(snapshot.features)])[0].numpy()
        assert (second_provider.cache_hits, second_provider.cache_misses) == (1, 0)
        assert np.allclose(first, second)

    def test_cache_not_used_for_non_reusable_layer(self, small_graph):
        snapshot = small_graph[2]
        cache = DictAggregationCache()
        provider = snapshot_provider(snapshot, cache=cache, reusable_layers=(0,))
        provider.aggregate_many(1, [Tensor(snapshot.features)])
        assert len(cache) == 0

    def test_wrong_feature_count_rejected(self, small_graph):
        provider = snapshot_provider(small_graph[0])
        with pytest.raises(ValueError, match="expected 1 feature tensors"):
            provider.aggregate_many(0, [])

    def test_providers_share_one_kernel_set(self, small_graph):
        snapshot = small_graph[1]
        kernels = SnapshotKernels(snapshot, "gespmm", SPEC)
        first, second = AggregationProvider(kernels), AggregationProvider(kernels)
        assert first.kernels is second.kernels
        fresh = snapshot_provider(snapshot, "gespmm")
        outs = [
            p.aggregate_many(0, [Tensor(snapshot.features)])[0].numpy()
            for p in (first, second, fresh)
        ]
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])


class TestGCNUpdate:
    def test_forward_shape_and_grad(self):
        update = GCNUpdate(4, 8, seed=0)
        x = Tensor(np.random.default_rng(0).random((10, 4)).astype(np.float32))
        out = update(x, ExecutionContext())
        assert out.shape == (10, 8)
        mse_loss(out, Tensor(np.zeros((10, 8), np.float32))).backward()
        assert update.weight.grad is not None and update.bias.grad is not None

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            GCNUpdate(0, 3)


class TestModelFactory:
    def test_list_models(self):
        assert set(MODEL_REGISTRY) == {"evolvegcn", "mpnn_lstm", "tgcn"}

    def test_build_model_by_name(self):
        assert isinstance(build_model("mpnn-lstm", 4, 8), MPNNLSTM)
        assert isinstance(build_model("EVOLVEGCN", 4, 8), EvolveGCN)
        assert isinstance(build_model("tgcn", 4, 8), TGCN)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            build_model("gat", 4, 8)

    def test_seed_reproducibility(self):
        a = dict(build_model("tgcn", 4, 8, seed=3).named_parameters())
        b = dict(build_model("tgcn", 4, 8, seed=3).named_parameters())
        assert all(np.allclose(a[k].data, b[k].data) for k in a)

    def test_structural_metadata(self):
        assert MPNNLSTM.num_gcn_layers == 2 and not MPNNLSTM.evolves_weights
        assert EvolveGCN.evolves_weights
        assert TGCN.needs_topology_with_reuse is False
        assert MPNNLSTM.needs_topology_with_reuse is True


@pytest.mark.parametrize("model_name", ["mpnn_lstm", "evolvegcn", "tgcn"])
class TestModelForward:
    def _run_frame(self, model, snapshots, partition_sizes):
        state = model.init_state(snapshots[0].num_nodes)
        predictions = []
        index = 0
        for size in partition_sizes:
            group = snapshots[index : index + size]
            index += size
            kernels = (
                SnapshotKernels(group[0], "coo", SPEC)
                if size == 1
                else PartitionKernels(DataPipe().partition(group), SPEC)
            )
            outs, state = model.forward_partition(
                AggregationProvider(kernels), features_of(group), state, ExecutionContext()
            )
            predictions.extend(outs)
        return predictions

    def test_output_shapes(self, model_name, small_graph):
        model = build_model(model_name, small_graph.feature_dim, 8, seed=0)
        preds = self._run_frame(model, small_graph.snapshots[:4], [1, 1, 1, 1])
        assert len(preds) == 4
        assert all(p.shape == (small_graph.num_nodes, 1) for p in preds)

    def test_partitioning_does_not_change_numerics(self, model_name, small_graph):
        """Processing snapshots in groups must be numerically identical to 1-by-1."""
        snapshots = small_graph.snapshots[:4]
        model = build_model(model_name, small_graph.feature_dim, 8, seed=1)
        one_by_one = self._run_frame(model, snapshots, [1, 1, 1, 1])
        grouped = self._run_frame(model, snapshots, [2, 2])
        for a, b in zip(one_by_one, grouped):
            assert np.allclose(a.numpy(), b.numpy(), atol=1e-4)

    def test_recurrent_state_matters(self, model_name, small_graph):
        """Predictions for the last snapshot depend on the earlier snapshots."""
        snapshots = small_graph.snapshots[:3]
        model = build_model(model_name, small_graph.feature_dim, 8, seed=2)
        full = self._run_frame(model, snapshots, [1, 1, 1])[-1]
        only_last = self._run_frame(model, snapshots[-1:], [1])[-1]
        assert not np.allclose(full.numpy(), only_last.numpy(), atol=1e-6)

    def test_backward_reaches_all_parameters(self, model_name, small_graph):
        snapshots = small_graph.snapshots[:3]
        model = build_model(model_name, small_graph.feature_dim, 8, seed=3)
        preds = self._run_frame(model, snapshots, [3])
        target = Tensor(np.zeros((small_graph.num_nodes, 1), np.float32))
        mse_loss(preds[-1], target).backward()
        grads = [p.grad is not None for p in model.parameters()]
        assert all(grads), f"{sum(grads)}/{len(grads)} parameters received gradients"
