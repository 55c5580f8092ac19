"""Node-wise graph sharding across devices with halo-node bookkeeping.

Scaling dynamic-GNN training beyond one device follows the classic
distributed-GNN recipe (cf. DGL's ``partition_graph``): the node set is
split into ``K`` contiguous shards, every device owns the *rows* of its
shard in each snapshot's adjacency, and the column endpoints that fall
outside the shard are *halo nodes* — their features must be fetched from
the owning device before the shard's aggregation can run.

Because each shard keeps the full global shape (only its rows are
populated), every piece of the paper's single-GPU machinery composes
unchanged: shard adjacencies of a snapshot group feed straight into
:func:`~repro.graph.overlap.extract_overlap`, so the overlap/exclusive
decomposition — and the transfer savings it buys — applies per shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRMatrix
from repro.graph.keys import unique
from repro.graph.overlap import extract_overlap
from repro.graph.snapshot import GraphSnapshot
from repro.utils.validation import check_positive

#: supported stage-assignment strategies of :class:`FramePartitioner`
SCHEDULE_MODES = ("round_robin", "blocked")


@dataclass(frozen=True)
class SnapshotShard:
    """One device's row-slice of one snapshot.

    The adjacency keeps the *global* shape so edge keys stay comparable
    across shards and snapshots; only rows in ``[node_start, node_stop)``
    hold entries.
    """

    device: int
    timestep: int
    node_start: int
    node_stop: int
    adjacency: CSRMatrix
    #: column endpoints referenced by this shard but owned elsewhere
    halo_nodes: np.ndarray

    @property
    def num_local_nodes(self) -> int:
        return self.node_stop - self.node_start

    @property
    def num_edges(self) -> int:
        return self.adjacency.nnz

    @property
    def num_halo_nodes(self) -> int:
        return int(len(self.halo_nodes))

    def halo_feature_bytes(self, feature_dim: int) -> float:
        """Bytes of remote float32 features (the only feature dtype a
        :class:`GraphSnapshot` holds) this shard receives before aggregating."""
        return float(self.num_halo_nodes * feature_dim * 4)


def _row_slice(adjacency: CSRMatrix, start: int, stop: int) -> CSRMatrix:
    """Rows ``[start, stop)`` of ``adjacency``, zero-padded to the full shape."""
    n = adjacency.num_rows
    lo, hi = int(adjacency.indptr[start]), int(adjacency.indptr[stop])
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[start : stop + 1] = adjacency.indptr[start : stop + 1] - lo
    indptr[stop + 1 :] = hi - lo
    return CSRMatrix(
        indptr=indptr,
        indices=adjacency.indices[lo:hi],
        data=adjacency.data[lo:hi],
        shape=adjacency.shape,
    )


class GraphPartitioner:
    """Shards snapshots node-wise across ``num_devices`` devices.

    The range boundaries are placed so each shard owns roughly the same
    number of edges (summed over the planning snapshots), the load-balance
    criterion that matters for aggregation time.
    """

    def __init__(self, num_devices: int) -> None:
        check_positive("num_devices", num_devices)
        self.num_devices = num_devices

    # ------------------------------------------------------------------ planning
    def plan(
        self, snapshots: Sequence[GraphSnapshot], *, node_weight: float = 1.0
    ) -> np.ndarray:
        """Node-range boundaries (length ``num_devices + 1``) for a workload.

        ``node_weight`` is the cost of one node's dense (update/RNN) work
        expressed in units of one edge's aggregation work; the boundaries
        balance ``Σ degree + node_weight·|nodes|`` per shard.  The
        distributed trainer calibrates it from the preparing-epoch kernel
        statistics — dense-dominated models then shard close to node-uniform
        while aggregation-dominated ones follow the edge mass.
        """
        if not snapshots:
            raise ValueError("need at least one snapshot to plan a partitioning")
        if node_weight < 0:
            raise ValueError("node_weight must be >= 0")
        num_nodes = snapshots[0].num_nodes
        if self.num_devices > num_nodes:
            raise ValueError(
                f"cannot shard {num_nodes} nodes across {self.num_devices} devices"
            )
        degree = np.zeros(num_nodes, dtype=np.float64)
        for snapshot in snapshots:
            degree += snapshot.adjacency.row_nnz()
        cumulative = np.cumsum(degree + node_weight * max(1, len(snapshots)))
        targets = cumulative[-1] * np.arange(1, self.num_devices) / self.num_devices
        inner = np.searchsorted(cumulative, targets, side="left") + 1
        boundaries = np.concatenate([[0], inner, [num_nodes]]).astype(np.int64)
        # Degenerate distributions can collapse ranges; fall back to spreading
        # the affected boundaries so every device owns at least one node.
        for k in range(1, len(boundaries)):
            boundaries[k] = max(boundaries[k], boundaries[k - 1] + 1)
        boundaries[-1] = num_nodes
        for k in range(len(boundaries) - 2, 0, -1):
            boundaries[k] = min(boundaries[k], boundaries[k + 1] - 1)
        return boundaries

    # ------------------------------------------------------------------ sharding
    def shard_snapshot(
        self, snapshot: GraphSnapshot, boundaries: Optional[np.ndarray] = None
    ) -> List[SnapshotShard]:
        """Split one snapshot into per-device row shards with halo bookkeeping."""
        boundaries = self.plan([snapshot]) if boundaries is None else np.asarray(boundaries)
        shards: List[SnapshotShard] = []
        for device in range(self.num_devices):
            start, stop = int(boundaries[device]), int(boundaries[device + 1])
            adjacency = _row_slice(snapshot.adjacency, start, stop)
            # unique both sorts and deduplicates: a column referenced from
            # several rows (or through parallel multi-edges) counts once toward
            # halo traffic — its features are fetched once, not per edge.
            cols = unique(adjacency.indices)
            halo = cols[(cols < start) | (cols >= stop)]
            shards.append(
                SnapshotShard(
                    device=device,
                    timestep=snapshot.timestep,
                    node_start=start,
                    node_stop=stop,
                    adjacency=adjacency,
                    halo_nodes=halo,
                )
            )
        return shards

    # ------------------------------------------------------------------ fractions
    def node_fractions(self, boundaries: np.ndarray) -> np.ndarray:
        """Fraction of the node set each device owns."""
        boundaries = np.asarray(boundaries, dtype=np.float64)
        return np.diff(boundaries) / boundaries[-1]

    def edge_fractions(
        self, snapshots: Sequence[GraphSnapshot], boundaries: np.ndarray
    ) -> np.ndarray:
        """Fraction of all edges (summed over snapshots) each device owns."""
        totals = np.zeros(self.num_devices, dtype=np.float64)
        for snapshot in snapshots:
            counts = snapshot.adjacency.row_nnz()
            for device in range(self.num_devices):
                start, stop = int(boundaries[device]), int(boundaries[device + 1])
                totals[device] += counts[start:stop].sum()
        grand = totals.sum()
        if grand == 0:
            return np.full(self.num_devices, 1.0 / self.num_devices)
        return totals / grand

    def mean_halo_nodes(
        self, snapshots: Sequence[GraphSnapshot], boundaries: np.ndarray
    ) -> np.ndarray:
        """Mean halo-node count per device across the given snapshots."""
        totals = np.zeros(self.num_devices, dtype=np.float64)
        for snapshot in snapshots:
            for shard in self.shard_snapshot(snapshot, boundaries):
                totals[shard.device] += shard.num_halo_nodes
        return totals / max(1, len(snapshots))


@dataclass(frozen=True)
class FrameStage:
    """One device's slice of a frame pipeline: the group indices it owns."""

    device: int
    groups: Tuple[int, ...]

    @property
    def num_groups(self) -> int:
        return len(self.groups)


class FramePartitioner:
    """Shards a frame's snapshot groups across ``K`` devices (pipeline stages).

    The temporal analogue of :class:`GraphPartitioner`: instead of splitting
    the *node set* (every device holds every snapshot group), the *frame* is
    split — each device owns a subset of the frame's snapshot groups and runs
    the full model on them, while the recurrent state flows between stages as
    point-to-point transfers on the interconnect.  This is the multi-device
    generalization of the paper's Fig. 8 pipeline: device ``d`` computes
    group ``g`` while device ``d+1`` prefetches group ``g+1``'s slices.

    Parameters
    ----------
    num_devices:
        Number of pipeline stages (one per device).
    schedule:
        ``"round_robin"`` assigns group ``g`` to device ``g % K`` — adjacent
        groups live on different devices, which maximizes transfer/compute
        overlap (the 1F1B-style schedule).  ``"blocked"`` assigns contiguous
        runs of groups per device, which minimizes the number of cross-device
        state handoffs at the cost of less prefetch depth.
    """

    def __init__(self, num_devices: int, *, schedule: str = "round_robin") -> None:
        check_positive("num_devices", num_devices)
        if schedule not in SCHEDULE_MODES:
            raise ValueError(
                f"unknown schedule {schedule!r}; expected one of {SCHEDULE_MODES}"
            )
        self.num_devices = num_devices
        self.schedule = schedule

    # ------------------------------------------------------------------ assignment
    def assign(self, num_groups: int) -> np.ndarray:
        """Owning device per group index (length ``num_groups``)."""
        check_positive("num_groups", num_groups)
        groups = np.arange(num_groups, dtype=np.int64)
        if self.schedule == "round_robin":
            return groups % self.num_devices
        # "blocked": contiguous chunks whose sizes differ by at most one.
        return (groups * self.num_devices) // num_groups

    def stages(self, num_groups: int) -> List[FrameStage]:
        """Per-device view of :meth:`assign` (devices with no groups included)."""
        assignment = self.assign(num_groups)
        return [
            FrameStage(
                device=device,
                groups=tuple(int(g) for g in np.flatnonzero(assignment == device)),
            )
            for device in range(self.num_devices)
        ]
