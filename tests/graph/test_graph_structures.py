"""Tests for normalization, snapshots, dynamic graphs, frames and partitions."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.datapipe import DataPipe
from repro.graph import (
    CSRMatrix,
    DynamicGraph,
    FrameIterator,
    GraphSnapshot,
)


def tiny_adj():
    return CSRMatrix.from_edges(np.array([0, 1, 2]), np.array([1, 2, 0]), (4, 4))


class TestSnapshot:
    def test_basic_properties(self):
        snap = GraphSnapshot(tiny_adj(), np.zeros((4, 3), dtype=np.float32), timestep=5)
        assert snap.num_nodes == 4 and snap.num_edges == 3 and snap.feature_dim == 3
        assert snap.timestep == 5

    def test_feature_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GraphSnapshot(tiny_adj(), np.zeros((5, 3), dtype=np.float32))

    def test_target_length_checked(self):
        with pytest.raises(ValueError):
            GraphSnapshot(tiny_adj(), np.zeros((4, 3), dtype=np.float32), targets=np.zeros(3))

    def test_adjacency_bytes_formats(self):
        snap = GraphSnapshot(tiny_adj(), np.zeros((4, 2), dtype=np.float32))
        assert snap.adjacency_bytes("coo") == 3 * snap.num_edges * 4
        assert snap.adjacency_bytes("csr+csc") > snap.adjacency_bytes("csr")
        with pytest.raises(ValueError):
            snap.adjacency_bytes("bogus")

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", [(7, 7), (9, 5), (4, 11)])
    def test_adjacency_bytes_match_the_format_conversions(self, seed, shape):
        """The arithmetic sizes equal those of the converted matrices on CSRs
        with explicit zeros, empty rows and duplicate entries."""
        rng = np.random.default_rng(seed)
        n_rows, n_cols = shape
        row_nnz = rng.integers(2, 5, size=n_rows)
        row_nnz[rng.integers(0, n_rows)] = 0  # an empty row
        indptr = np.concatenate(([0], np.cumsum(row_nnz)))
        indices = rng.integers(0, n_cols, size=int(indptr[-1]))
        indices[1] = indices[0]  # a duplicate entry (every non-empty row holds two)
        data = rng.choice(np.array([0.0, 1.0, 2.5], dtype=np.float32), size=len(indices))
        data[-1] = 0.0  # an explicit zero
        csr = CSRMatrix(indptr=indptr, indices=indices, data=data, shape=shape)
        expected = {
            "coo": csr.to_coo().nbytes,
            "csr": csr.nbytes,
            "csr+csc": csr.nbytes + csr.transpose().nbytes,
        }
        # a snapshot's adjacency is square, so the non-square shapes go
        # through the method on a stand-in that only has ``adjacency``
        owner = (
            GraphSnapshot(csr, np.zeros((n_rows, 2), dtype=np.float32))
            if n_rows == n_cols
            else SimpleNamespace(adjacency=csr)
        )
        for fmt, nbytes in expected.items():
            assert GraphSnapshot.adjacency_bytes(owner, fmt) == nbytes


class TestDynamicGraph:
    def test_properties(self, small_graph):
        assert small_graph.num_snapshots == 10
        assert small_graph.num_nodes == 60
        assert small_graph.feature_dim == 4
        assert small_graph.total_edges == sum(s.num_edges for s in small_graph)

    def test_change_rates_in_unit_interval(self, small_graph):
        rates = small_graph.change_rates()
        assert len(rates) == small_graph.num_snapshots - 1
        assert np.all((rates >= 0) & (rates <= 1))

    def test_mismatched_nodes_rejected(self, small_graph):
        other = GraphSnapshot(tiny_adj(), np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            DynamicGraph(snapshots=[small_graph[0], other])


class TestFrames:
    def test_num_frames(self, small_graph):
        frames = FrameIterator(small_graph, frame_size=4)
        assert frames.num_frames == small_graph.num_snapshots - 4 + 1

    def test_frames_slide_by_stride(self, small_graph):
        frames = list(FrameIterator(small_graph, frame_size=4))
        assert frames[1].start == 1
        assert [s.timestep for s in frames[0]] == [0, 1, 2, 3]
        assert [s.timestep for s in frames[1]] == [1, 2, 3, 4]

    def test_frame_size_too_large_rejected(self, small_graph):
        with pytest.raises(ValueError):
            FrameIterator(small_graph, frame_size=small_graph.num_snapshots + 1)

    def test_frame_lookup_out_of_range(self, small_graph):
        frames = FrameIterator(small_graph, frame_size=4)
        with pytest.raises(IndexError):
            frames.frame(frames.num_frames)

    @pytest.mark.parametrize("s_per,expected_sizes", [(1, [1] * 4), (2, [2, 2]), (3, [3, 1]), (4, [4])])
    def test_partition_frame_sizes(self, small_graph, s_per, expected_sizes):
        frame = FrameIterator(small_graph, frame_size=4).frame(0)
        partitions = DataPipe().preparer.prepare_frame(list(frame.snapshots), s_per)
        assert [p.size for p in partitions] == expected_sizes
        flattened = [s.timestep for p in partitions for s in p.snapshots]
        assert flattened == [s.timestep for s in frame]
