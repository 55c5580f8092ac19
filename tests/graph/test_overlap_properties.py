"""Property-based tests for the overlap-decomposition invariants.

Everything downstream — partition transfers, the reuse cache, the serving
store, the distributed shards — leans on two invariants of §4.1's
decomposition, so they are checked here over randomized workloads instead
of hand-picked examples:

1. for *arbitrary* snapshot windows, ``overlap ∪ exclusives[i]``
   reconstructs every snapshot exactly and the two parts are disjoint;
2. the incremental tracker agrees with the from-scratch
   :func:`extract_overlap` / :func:`refine_overlap` after *any* sequence of
   graph deltas.

Cases are generated from seeded :mod:`repro.utils.rng` streams (60 seeds ×
several window states each), so a failure reproduces from its seed alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CSRMatrix, IncrementalOverlapTracker, extract_overlap, refine_overlap
from repro.utils.rng import as_rng

#: number of seeded cases per property (two properties -> >= 50 cases total)
NUM_SEEDS = 30


def random_keys(rng: np.random.Generator, n: int, max_edges: int) -> np.ndarray:
    """A random (possibly empty) edge-key set over an ``n x n`` node grid."""
    num = int(rng.integers(0, max_edges + 1))
    rows = rng.integers(0, n, size=num, dtype=np.int64)
    cols = rng.integers(0, n, size=num, dtype=np.int64)
    return np.unique(rows * n + cols)


def evolve_keys(keys: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """One random delta: drop ~20 % of the edges, insert a few fresh ones."""
    kept = keys[rng.random(len(keys)) > 0.2] if len(keys) else keys
    fresh = random_keys(rng, n, max(2, len(keys) // 3))
    return np.union1d(kept, fresh)


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_decomposition_reconstructs_arbitrary_windows(seed):
    rng = as_rng(seed)
    n = int(rng.integers(8, 40))
    group_size = int(rng.integers(1, 7))
    key_sets = [random_keys(rng, n, 4 * n) for _ in range(group_size)]
    adjacencies = [CSRMatrix.from_edge_keys(keys, (n, n)) for keys in key_sets]

    decomposition = extract_overlap(adjacencies)
    overlap_keys = decomposition.overlap.edge_keys()
    assert decomposition.group_size == group_size
    assert 0.0 <= decomposition.overlap_rate <= 1.0

    for keys, exclusive in zip(key_sets, decomposition.exclusives):
        exclusive_keys = exclusive.edge_keys()
        # Exact reconstruction: overlap ∪ exclusive == the original snapshot.
        assert np.array_equal(np.union1d(overlap_keys, exclusive_keys), keys)
        # Disjointness: no edge is stored twice.
        assert len(np.intersect1d(overlap_keys, exclusive_keys)) == 0
        # The overlap is contained in every member.
        assert len(np.setdiff1d(overlap_keys, keys)) == 0


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_tracker_matches_from_scratch_after_any_delta_sequence(seed):
    rng = as_rng(1_000 + seed)
    n = int(rng.integers(8, 32))
    capacity = int(rng.integers(2, 6))
    tracker = IncrementalOverlapTracker((n, n), capacity)

    keys = random_keys(rng, n, 3 * n)
    window: list = []
    for version in range(int(rng.integers(capacity, 2 * capacity + 3))):
        keys = evolve_keys(keys, n, rng)
        tracker.push(version, keys)
        window.append(keys)
        window = window[-capacity:]

        scratch = extract_overlap(
            [CSRMatrix.from_edge_keys(k, (n, n)) for k in window]
        )
        incremental = tracker.decomposition()
        assert np.array_equal(
            incremental.overlap.edge_keys(), scratch.overlap.edge_keys()
        )
        for a, b in zip(incremental.exclusives, scratch.exclusives):
            assert np.array_equal(a.edge_keys(), b.edge_keys())
        assert incremental.overlap_rate == pytest.approx(scratch.overlap_rate)

    # Refinement of a random subgroup agrees with both the from-scratch
    # refinement and a direct extraction over the subgroup members.
    size = int(rng.integers(1, len(window) + 1))
    positions = sorted(
        int(p) for p in rng.choice(len(window), size=size, replace=False)
    )
    refined = refine_overlap(tracker.decomposition(), positions)
    scratch_refined = refine_overlap(
        extract_overlap([CSRMatrix.from_edge_keys(k, (n, n)) for k in window]),
        positions,
    )
    direct = extract_overlap(
        [CSRMatrix.from_edge_keys(window[p], (n, n)) for p in positions]
    )
    for other in (scratch_refined, direct):
        assert np.array_equal(
            refined.overlap.edge_keys(), other.overlap.edge_keys()
        )
        for a, b in zip(refined.exclusives, other.exclusives):
            assert np.array_equal(a.edge_keys(), b.edge_keys())
    assert refined.overlap_rate == pytest.approx(scratch_refined.overlap_rate)
