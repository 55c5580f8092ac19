"""Offline parallel-GNN analysis and the online dynamic tuner (§4.4).

The offline analysis estimates the speedup of PiPAD's parallel GNN over
one-snapshot execution on synthetic snapshot groups with controlled overlap
rates and feature dimensions (this is exactly the data behind Fig. 9).  The
online :class:`DynamicTuner` combines that table with the statistics the
runtime gathers during the preparing epochs — per-frame overlap rates,
per-snapshot memory footprint, compute and transfer times — to pick the
parallelism level ``S_per`` for every frame without triggering OOM or
stalling the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRMatrix
from repro.graph.keys import difference, union
from repro.gpu.spec import GPUSpec
from repro.kernels.gemm import update_gemm_cost
from repro.kernels.spmm_sliced import SlicedParallelAggregation
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_in_range, check_positive


#: parallelism levels the tuner chooses ``S_per`` from
S_PER_CANDIDATES: Tuple[int, ...] = (2, 4, 8)
#: share of device memory a frame's working set may plan to occupy
MEMORY_SAFETY_FRACTION = 0.9
#: a candidate stalls the pipeline once its transfer time exceeds its
#: compute time by more than this factor
STALL_TOLERANCE = 1.25


# ---------------------------------------------------------------------------
# controlled-overlap snapshot groups
# ---------------------------------------------------------------------------
def build_overlap_group(
    num_nodes: int,
    edges_per_snapshot: int,
    group_size: int,
    overlap_rate: float,
    seed: SeedLike = 0,
) -> Tuple[CSRMatrix, List[CSRMatrix], List[CSRMatrix]]:
    """Construct a snapshot group with a target overlap rate.

    Returns ``(overlap, exclusives, full_snapshots)`` where every snapshot is
    ``overlap ∪ exclusive_i`` and the group's ``|∩|/|∪|`` equals
    ``overlap_rate`` up to rounding (paper §4.4: "randomly selecting snapshot
    groups that satisfy the target overlap requirements").
    """
    check_positive("num_nodes", num_nodes)
    check_positive("edges_per_snapshot", edges_per_snapshot)
    check_positive("group_size", group_size)
    check_in_range("overlap_rate", overlap_rate, 0.0, 1.0)
    rng = as_rng(seed)

    shape = (num_nodes, num_nodes)
    # |core| such that core/(S*E - (S-1)*core) == overlap_rate
    core_size = int(
        round(overlap_rate * group_size * edges_per_snapshot / (1.0 + overlap_rate * (group_size - 1)))
    )
    core_size = min(core_size, edges_per_snapshot)
    exclusive_size = edges_per_snapshot - core_size

    def sample(count: int, forbidden: np.ndarray) -> np.ndarray:
        keys: np.ndarray = np.zeros(0, dtype=np.int64)
        while len(keys) < count:
            need = int((count - len(keys)) * 1.5) + 8
            rows = rng.integers(0, num_nodes, size=need, dtype=np.int64)
            cols = rng.integers(0, num_nodes, size=need, dtype=np.int64)
            mask = rows != cols
            fresh = rows[mask] * num_nodes + cols[mask]
            fresh = difference(fresh, forbidden)
            keys = union(keys, fresh)
        return rng.permutation(keys)[:count]

    core = sample(core_size, np.zeros(0, dtype=np.int64)) if core_size else np.zeros(0, dtype=np.int64)
    used = core.copy()
    exclusives: List[np.ndarray] = []
    for _ in range(group_size):
        exclusive = (
            sample(exclusive_size, used) if exclusive_size else np.zeros(0, dtype=np.int64)
        )
        used = union(used, exclusive)
        exclusives.append(exclusive)

    overlap_mat = CSRMatrix.from_edge_keys(core, shape)
    exclusive_mats = [CSRMatrix.from_edge_keys(e, shape) for e in exclusives]
    full = [CSRMatrix.from_edge_keys(np.concatenate((core, e)), shape) for e in exclusives]
    return overlap_mat, exclusive_mats, full


# ---------------------------------------------------------------------------
# offline analysis (Fig. 9)
# ---------------------------------------------------------------------------
@dataclass
class OfflineAnalysis:
    """Cost-model estimates of the parallel GNN speedup (offline profiling)."""

    spec: GPUSpec = field(default_factory=GPUSpec)
    num_nodes: int = 1024
    avg_degree: float = 4.0
    seed: int = 0

    def parallel_gnn_seconds(
        self,
        overlap: CSRMatrix,
        exclusives: Sequence[CSRMatrix],
        feature_dim: int,
        hidden_dim: int,
    ) -> float:
        """Estimated time to aggregate + update a group with the parallel GNN
        (the update GEMM reuses its weights across the group)."""
        group = len(exclusives)
        seconds = 0.0
        launch = self.spec.cudagraph_launch_overhead_us * 1e-6
        if overlap.nnz:
            kernel = SlicedParallelAggregation(overlap, self.spec, snapshots_coalesced=group)
            seconds += kernel.forward_cost((overlap.num_rows, feature_dim * group)).execution_seconds(
                self.spec
            ) + launch
        for exclusive in exclusives:
            if exclusive.nnz:
                kernel = SlicedParallelAggregation(exclusive, self.spec, snapshots_coalesced=1)
                seconds += kernel.forward_cost(
                    (exclusive.num_rows, feature_dim)
                ).execution_seconds(self.spec) + launch
        update = update_gemm_cost(
            self.num_nodes, feature_dim, hidden_dim, self.spec, reuse_group=group
        )
        seconds += group * (update.execution_seconds(self.spec) + launch)
        return seconds

    def sequential_gnn_seconds(
        self, snapshots: Sequence[CSRMatrix], feature_dim: int, hidden_dim: int
    ) -> float:
        """Estimated time to process the same group one snapshot at a time."""
        seconds = 0.0
        launch = self.spec.kernel_launch_overhead_us * 1e-6
        for adjacency in snapshots:
            if adjacency.nnz:
                kernel = SlicedParallelAggregation(adjacency, self.spec, snapshots_coalesced=1)
                seconds += kernel.forward_cost(
                    (adjacency.num_rows, feature_dim)
                ).execution_seconds(self.spec) + launch
            update = update_gemm_cost(
                self.num_nodes, feature_dim, hidden_dim, self.spec, reuse_group=1
            )
            seconds += update.execution_seconds(self.spec) + launch
        return seconds

    def speedup(
        self,
        s_per: int,
        overlap_rate: float,
        feature_dim: int,
        hidden_dim: Optional[int] = None,
    ) -> float:
        """Parallel-over-sequential speedup for one configuration."""
        return offline_speedup(
            self.spec,
            self.num_nodes,
            self.avg_degree,
            self.seed,
            s_per,
            overlap_rate,
            feature_dim,
            hidden_dim or max(4, feature_dim * 2),
        )

    def speedup_table(
        self,
        s_per_values: Sequence[int] = S_PER_CANDIDATES,
        overlap_rates: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
        feature_dim: int = 16,
    ) -> Dict[Tuple[int, float], float]:
        """Speedup vs. overlap rate for each parallelism level (Fig. 9a)."""
        return {
            (s, overlap_rate): self.speedup(s, overlap_rate, feature_dim)
            for s in s_per_values
            for overlap_rate in overlap_rates
        }

    def dimension_table(
        self,
        s_per_values: Sequence[int] = S_PER_CANDIDATES,
        feature_dims: Sequence[int] = (2, 8, 16, 32, 64, 128),
        overlap_rate: float = 0.8,
    ) -> Dict[Tuple[int, int], float]:
        """Speedup vs. feature dimension for each parallelism level (Fig. 9b)."""
        return {
            (s, dim): self.speedup(s, overlap_rate, dim)
            for s in s_per_values
            for dim in feature_dims
        }


# One table per process, shared by the trainer, every serving replica and the
# Fig. 9 experiment; exact because every input is in the key and
# build_overlap_group seeds a fresh RNG per call, so an entry is the float a
# fresh computation returns.
@lru_cache(maxsize=1024)
def offline_speedup(
    spec: GPUSpec,
    num_nodes: int,
    avg_degree: float,
    seed: int,
    s_per: int,
    overlap_rate: float,
    feature_dim: int,
    hidden_dim: int,
) -> float:
    """Offline speedup of one configuration (see :meth:`OfflineAnalysis.speedup`)."""
    analysis = OfflineAnalysis(spec, num_nodes, avg_degree, seed)
    edges = max(1, int(round(num_nodes * avg_degree)))
    overlap, exclusives, full = build_overlap_group(
        num_nodes, edges, s_per, overlap_rate, seed=seed
    )
    parallel = analysis.parallel_gnn_seconds(overlap, exclusives, feature_dim, hidden_dim)
    sequential = analysis.sequential_gnn_seconds(full, feature_dim, hidden_dim)
    return sequential / parallel if parallel > 0 else 1.0


# ---------------------------------------------------------------------------
# online dynamic tuner
# ---------------------------------------------------------------------------
#: per-snapshot activation-memory amplification behind the footprint
#: estimates the trainer and the serving policy feed the tuner's memory bound
ACTIVATION_FACTOR = 4.0


def capped_candidates(cap: Optional[int]) -> Tuple[int, ...]:
    """The candidates no larger than ``cap`` (a graph's ``max_s_per`` in
    training, the window capacity in serving); ``(cap,)`` when none is, all
    of them when there is no cap."""
    if not cap:
        return S_PER_CANDIDATES
    cap = int(cap)
    return tuple(c for c in S_PER_CANDIDATES if c <= cap) or (cap,)


def activation_bytes(snapshots: int, num_nodes: int, hidden_dim: int, scale: float) -> float:
    """Activation working set of ``snapshots`` snapshots in flight at once."""
    return snapshots * num_nodes * hidden_dim * 4.0 * ACTIVATION_FACTOR * scale


@dataclass(frozen=True)
class FrameProfile:
    """Per-frame statistics gathered online during the preparing epochs."""

    frame_index: int
    overlap_rate_per_candidate: Dict[int, float]
    per_snapshot_compute_seconds: float
    per_snapshot_transfer_bytes: float
    per_snapshot_footprint_bytes: float
    frame_activation_bytes: float

    @classmethod
    def sized(
        cls,
        frame_index: int,
        overlap_rates: Dict[int, float],
        *,
        feature_bytes: float,
        adjacency_bytes: float,
        num_nodes: int,
        feature_dim: int,
        hidden_dim: int,
        snapshots: int,
        scale: float,
        compute_seconds: Optional[float],
    ) -> "FrameProfile":
        """The profile of a frame of ``snapshots`` snapshots of the given
        (unscaled) per-snapshot byte sizes, extrapolated by ``scale``.

        ``compute_seconds`` is the measured kernel time per snapshot; with
        nothing measured yet (``None``) a coarse 0.5 ms estimate stands in.
        """
        activations = num_nodes * (feature_dim + hidden_dim) * 4.0 * ACTIVATION_FACTOR
        if compute_seconds is None:
            compute_seconds = 5e-4 * scale / max(1.0, scale)
        return cls(
            frame_index=frame_index,
            overlap_rate_per_candidate=overlap_rates,
            per_snapshot_compute_seconds=compute_seconds,
            per_snapshot_transfer_bytes=(feature_bytes + adjacency_bytes) * scale,
            per_snapshot_footprint_bytes=(
                (feature_bytes + adjacency_bytes + activations * snapshots / 2.0) * scale
            ),
            frame_activation_bytes=activation_bytes(snapshots, num_nodes, hidden_dim, scale),
        )


@dataclass(frozen=True)
class TuningDecision:
    """Outcome of the tuner for one frame."""

    frame_index: int
    s_per: int
    estimated_speedup: float
    overlap_rate: float
    reason: str


class DynamicTuner:
    """Chooses the parallelism level per frame (§4.4's three-factor procedure)."""

    def __init__(
        self,
        spec: GPUSpec,
        candidates: Sequence[int] = S_PER_CANDIDATES,
        *,
        feature_dim: int = 16,
    ) -> None:
        if not candidates:
            raise ValueError("candidates must not be empty")
        self.spec = spec
        self.candidates = tuple(sorted(set(int(c) for c in candidates)))
        self.feature_dim = feature_dim
        self.analysis = OfflineAnalysis(spec=spec)
        #: speedup table from the offline analysis: (s_per, OR bucket) -> speedup
        self._or_buckets = (0.1, 0.3, 0.5, 0.7, 0.9)
        self._table = self.analysis.speedup_table(
            self.candidates, self._or_buckets, feature_dim=feature_dim
        )

    def _lookup_speedup(self, s_per: int, overlap_rate: float) -> float:
        bucket = min(self._or_buckets, key=lambda b: abs(b - overlap_rate))
        return self._table[(s_per, bucket)]

    def decide(
        self,
        profile: FrameProfile,
        *,
        pcie_bandwidth_gbs: float,
    ) -> TuningDecision:
        """Pick ``S_per`` for one frame given its online profile."""
        capacity = self.spec.memory_bytes * MEMORY_SAFETY_FRACTION
        available = capacity - profile.frame_activation_bytes

        feasible: List[int] = []
        for candidate in self.candidates:
            needed = candidate * profile.per_snapshot_footprint_bytes
            if needed <= available:
                feasible.append(candidate)
        if not feasible:
            return TuningDecision(
                frame_index=profile.frame_index,
                s_per=1,
                estimated_speedup=1.0,
                overlap_rate=profile.overlap_rate_per_candidate.get(self.candidates[0], 0.0),
                reason="memory-bound: no candidate fits, fall back to one-snapshot",
            )

        scored: List[Tuple[int, float, bool]] = []
        for candidate in feasible:
            overlap_rate = profile.overlap_rate_per_candidate.get(candidate, 0.5)
            speedup = self._lookup_speedup(candidate, overlap_rate)
            transfer_seconds = (
                candidate * profile.per_snapshot_transfer_bytes / (pcie_bandwidth_gbs * 1e9)
            )
            compute_seconds = candidate * profile.per_snapshot_compute_seconds / max(speedup, 1e-9)
            stalls = transfer_seconds > compute_seconds * STALL_TOLERANCE
            scored.append((candidate, speedup, stalls))

        non_stalling = [entry for entry in scored if not entry[2]]
        pool = non_stalling or scored
        best = max(pool, key=lambda entry: entry[1])
        reason = "best estimated speedup among non-stalling candidates"
        if not non_stalling:
            reason = "all candidates stall the pipeline; picked best speedup anyway"
        return TuningDecision(
            frame_index=profile.frame_index,
            s_per=best[0],
            estimated_speedup=best[1],
            overlap_rate=profile.overlap_rate_per_candidate.get(best[0], 0.0),
            reason=reason,
        )

    def decide_forward(
        self,
        profile: FrameProfile,
        *,
        pcie_bandwidth_gbs: float,
    ) -> TuningDecision:
        """Forward-only (inference/serving) variant of :meth:`decide`.

        Serving keeps no gradients, optimizer state or backward activations,
        so only about half of the training-time footprint applies; the
        speedup table itself is already a forward-pass estimate and carries
        over unchanged.  The serving scheduler calls this per micro-batch to
        pick the window-partition parallelism.
        """
        forward_profile = FrameProfile(
            frame_index=profile.frame_index,
            overlap_rate_per_candidate=profile.overlap_rate_per_candidate,
            per_snapshot_compute_seconds=profile.per_snapshot_compute_seconds,
            per_snapshot_transfer_bytes=profile.per_snapshot_transfer_bytes,
            per_snapshot_footprint_bytes=profile.per_snapshot_footprint_bytes * 0.5,
            frame_activation_bytes=profile.frame_activation_bytes * 0.5,
        )
        decision = self.decide(forward_profile, pcie_bandwidth_gbs=pcie_bandwidth_gbs)
        return TuningDecision(
            frame_index=decision.frame_index,
            s_per=decision.s_per,
            estimated_speedup=decision.estimated_speedup,
            overlap_rate=decision.overlap_rate,
            reason=f"forward-only: {decision.reason}",
        )
