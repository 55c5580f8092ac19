"""Tests for normalization, snapshots, dynamic graphs, frames and partitions."""

from __future__ import annotations

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
