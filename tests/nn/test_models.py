"""Tests for the DGNN models and the aggregation providers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu import GPUSpec
from repro.nn import (
    DictAggregationCache,
    EvolveGCN,
    ExecutionContext,
    GCNUpdate,
    MODEL_REGISTRY,
    MPNNLSTM,
    SequentialAggregationProvider,
    TGCN,
    build_model,
    mean_inverse_degree,
)
from repro.nn.aggregation import snapshot_kernel
from repro.tensor import Tensor
from repro.tensor.nn.loss import mse_loss

SPEC = GPUSpec()


def features_of(snapshots):
    return [Tensor(s.features) for s in snapshots]


class TestProviders:
    def test_sequential_aggregation_matches_mean_normalization(self, small_graph):
        snapshot = small_graph[0]
        provider = SequentialAggregationProvider([snapshot], kernel_name="coo", spec=SPEC)
        [result] = provider.aggregate_many(0, [Tensor(snapshot.features)])
        dense = snapshot.adjacency.to_dense()
        expected = (dense @ snapshot.features + snapshot.features) * mean_inverse_degree(snapshot)
        assert np.allclose(result.numpy(), expected, atol=1e-4)

    def test_kernel_flavours_agree(self, small_graph):
        snapshot = small_graph[1]
        outs = []
        for kernel in ("coo", "gespmm", "sliced"):
            provider = SequentialAggregationProvider([snapshot], kernel_name=kernel, spec=SPEC)
            outs.append(provider.aggregate_many(0, [Tensor(snapshot.features)])[0].numpy())
        assert np.allclose(outs[0], outs[1], atol=1e-4)
        assert np.allclose(outs[0], outs[2], atol=1e-4)

    def test_cache_hit_skips_recompute_and_matches(self, small_graph):
        snapshot = small_graph[2]
        cache = DictAggregationCache()
        provider = SequentialAggregationProvider([snapshot], spec=SPEC, cache=cache)
        first = provider.aggregate_many(0, [Tensor(snapshot.features)])[0].numpy()
        assert len(cache) == 1
        second_provider = SequentialAggregationProvider([snapshot], spec=SPEC, cache=cache)
        second = second_provider.aggregate_many(0, [Tensor(snapshot.features)])[0].numpy()
        assert second_provider.cache_hits == 1
        assert np.allclose(first, second)

    def test_cache_not_used_for_non_reusable_layer(self, small_graph):
        snapshot = small_graph[2]
        cache = DictAggregationCache()
        provider = SequentialAggregationProvider(
            [snapshot], spec=SPEC, cache=cache, reusable_layers=(0,)
        )
        provider.aggregate_many(1, [Tensor(snapshot.features)])
        assert len(cache) == 0

    def test_wrong_feature_count_rejected(self, small_graph):
        provider = SequentialAggregationProvider([small_graph[0]], spec=SPEC)
        with pytest.raises(ValueError):
            provider.aggregate_many(0, [])

    def test_prebuilt_kernels_are_used_as_given(self, small_graph):
        group = [small_graph[0], small_graph[1]]
        kernels = [snapshot_kernel(s, "gespmm", SPEC, 1.0) for s in group]
        provider = SequentialAggregationProvider(group, spec=SPEC, kernels=kernels)
        assert provider._kernels == kernels
        built = SequentialAggregationProvider(group, kernel_name="gespmm", spec=SPEC)
        outs = zip(
            provider.aggregate_many(0, features_of(group)),
            built.aggregate_many(0, features_of(group)),
        )
        for a, b in outs:
            assert np.array_equal(a.numpy(), b.numpy())
        with pytest.raises(ValueError, match="expected 2 kernels"):
            SequentialAggregationProvider(group, spec=SPEC, kernels=kernels[:1])


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
            provider = SequentialAggregationProvider(group, kernel_name="coo", spec=SPEC)
            outs, state = model.forward_partition(
                provider, features_of(group), state, ExecutionContext()
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
