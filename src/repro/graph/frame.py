"""Frames (sliding windows) and partitions over a DTDG.

DTDG-based DGNN training feeds the model a *frame* of W consecutive
snapshots and slides the window forward by a stride of 1 (paper §2.1 and
§3.3: stride 1 maximizes temporal interaction and creates the inter-frame
overlap PiPAD reuses).  Inside a frame PiPAD further groups contiguous
snapshots into *partitions* of ``s_per`` snapshots, the unit of parallel
computation and of partition-grained transfer (§4.1/§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.snapshot import GraphSnapshot
from repro.utils.validation import check_positive

#: frame size used throughout the paper's evaluation (§5.1)
DEFAULT_FRAME_SIZE = 16


@dataclass(frozen=True)
class Frame:
    """A window of consecutive snapshots fed to the DGNN in one step."""

    snapshots: tuple
    index: int
    start: int

    @property
    def size(self) -> int:
        return len(self.snapshots)

    @property
    def timesteps(self) -> List[int]:
        return [s.timestep for s in self.snapshots]

    def __iter__(self) -> Iterator[GraphSnapshot]:
        return iter(self.snapshots)

    def __getitem__(self, i: int) -> GraphSnapshot:
        return self.snapshots[i]

    def __len__(self) -> int:
        return len(self.snapshots)


class FrameIterator:
    """Iterates the sliding-window frames of a :class:`DynamicGraph`.

    Frames hold ``frame_size`` snapshots (paper default 16) and the window
    slides forward by one snapshot per frame.
    """

    def __init__(self, graph: DynamicGraph, frame_size: int = DEFAULT_FRAME_SIZE) -> None:
        check_positive("frame_size", frame_size)
        if frame_size > graph.num_snapshots:
            raise ValueError(
                f"frame_size {frame_size} exceeds the number of snapshots {graph.num_snapshots}"
            )
        self.graph = graph
        self.frame_size = frame_size

    @property
    def num_frames(self) -> int:
        return self.graph.num_snapshots - self.frame_size + 1

    def __len__(self) -> int:
        return self.num_frames

    def __iter__(self) -> Iterator[Frame]:
        return map(self.frame, range(self.num_frames))

    def frame(self, index: int) -> Frame:
        if not 0 <= index < self.num_frames:
            raise IndexError(f"frame index {index} out of range [0, {self.num_frames})")
        return Frame(
            snapshots=tuple(self.graph.snapshots[index : index + self.frame_size]),
            index=index,
            start=index,
        )
