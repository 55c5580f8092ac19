"""The window topology stays edge keys until a kernel needs a CSR.

- Transfer sizes are counted from the keys and equal the built formats'.
- An overlap decomposition (from scratch, refined, or tracked under
  deltas) builds its CSRs only when read, and they equal the eager CSRs
  array for array.
- In a fleet serve, a partition kernel is built only inside a provider
  pass that computes over it, its SciPy matrix only by its numerics and
  its sliced CSR only by its cost; a partition served fully from the reuse
  cache builds neither.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.data_prep import DataPreparer
from repro.core.parallel_gnn import PartitionKernels
from repro.distributed import FleetConfig, build_fleet_serving_engine
from repro.gpu.spec import GPUSpec
from repro.graph import (
    DEFAULT_SLICE_CAPACITY,
    CSRMatrix,
    IncrementalOverlapTracker,
    SlicedCSRMatrix,
    extract_overlap,
    refine_overlap,
)
from repro.graph.snapshot import GraphSnapshot
from repro.kernels.base import BaseAggregationKernel
from repro.kernels.spmm_sliced import SlicedParallelAggregation
from repro.nn import AggregationProvider, build_model
from repro.serving import ServingConfig, synthesize_serving_trace

N = 90


def random_adjacency(rng: np.random.Generator, heavy_rows: int) -> CSRMatrix:
    """Random ``N x N`` adjacency with empty rows and ``heavy_rows`` rows
    holding more than one slice's worth of edges."""
    rows = [rng.integers(0, N // 2, size=rng.integers(0, 120))]  # rows >= N/2 stay empty
    cols = [rng.integers(0, N, size=len(rows[0]))]
    for row in rng.choice(N // 2, size=heavy_rows, replace=False):
        width = int(rng.integers(DEFAULT_SLICE_CAPACITY + 1, N))
        rows.append(np.full(width, row))
        cols.append(rng.choice(N, size=width, replace=False))
    return CSRMatrix.from_edges(np.concatenate(rows), np.concatenate(cols), (N, N))


def eager_parts(adjacencies):
    """Overlap and exclusive CSRs computed densely and converted by SciPy."""
    dense = [a.to_dense() for a in adjacencies]
    overlap = reduce(np.minimum, dense)

    def csr(matrix):
        return CSRMatrix.from_scipy(sp.csr_matrix(matrix))

    return csr(overlap), [csr(d - overlap) for d in dense]


def assert_same_csr(a: CSRMatrix, b: CSRMatrix) -> None:
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def assert_matches_eager(decomposition, adjacencies) -> None:
    overlap, exclusives = eager_parts(adjacencies)
    assert_same_csr(decomposition.overlap, overlap)
    assert decomposition.overlap is decomposition.overlap  # built once, kept
    assert len(decomposition.exclusives) == len(exclusives)
    for lazy, eager in zip(decomposition.exclusives, exclusives):
        assert_same_csr(lazy, eager)


@pytest.fixture
def csr_builds(monkeypatch):
    """Counts ``CSRMatrix.from_edge_keys`` calls (every lazy part's build)."""
    calls = []
    original = CSRMatrix.from_edge_keys.__func__

    def counting(cls, keys, shape):
        calls.append(shape)
        return original(cls, keys, shape)

    monkeypatch.setattr(CSRMatrix, "from_edge_keys", classmethod(counting))
    return calls


class TestBytesFromKeys:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), group=st.integers(1, 4), heavy=st.integers(0, 3))
    def test_bytes_equal_the_built_formats(self, seed, group, heavy):
        rng = np.random.default_rng(seed)
        adjacencies = [random_adjacency(rng, heavy) for _ in range(group)]
        if seed % 5 == 0:  # an all-empty member
            adjacencies[0] = CSRMatrix.empty((N, N))
        snapshots = [
            GraphSnapshot(adjacency=a, features=np.zeros((N, 2), np.float32), timestep=t)
            for t, a in enumerate(adjacencies)
        ]
        decomposition = extract_overlap(adjacencies)
        overlap, exclusives = eager_parts(adjacencies)
        for sliced in (True, False):
            data = DataPreparer(use_sliced_csr=sliced).prepare_from_decomposition(
                snapshots, decomposition
            )

            def nbytes(csr):
                if not csr.nnz:
                    return 0
                return SlicedCSRMatrix.from_csr(csr).nbytes if sliced else csr.nbytes

            assert data.overlap_bytes == nbytes(overlap)
            assert data.exclusive_bytes == tuple(nbytes(e) for e in exclusives)

    def test_all_empty_group_costs_nothing(self):
        empty = CSRMatrix.empty((N, N))
        snapshots = [
            GraphSnapshot(adjacency=empty, features=np.zeros((N, 2), np.float32), timestep=t)
            for t in range(3)
        ]
        data = DataPreparer().prepare_from_decomposition(
            snapshots, extract_overlap([empty] * 3)
        )
        assert data.adjacency_bytes == 0

    def test_preparing_builds_no_csr(self, small_graph, csr_builds):
        DataPreparer().prepare_frame(small_graph.snapshots[:8], 4)
        assert csr_builds == []


class TestLazyDecomposition:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), group=st.integers(1, 5))
    def test_extract_and_refine_match_eager(self, seed, group):
        rng = np.random.default_rng(seed)
        adjacencies = [random_adjacency(rng, 2) for _ in range(group)]
        full = extract_overlap(adjacencies)
        assert_matches_eager(full, adjacencies)
        subset = sorted(rng.choice(group, size=rng.integers(1, group + 1), replace=False))
        assert_matches_eager(refine_overlap(full, subset), [adjacencies[i] for i in subset])

    def test_tracker_matches_eager_under_churn(self):
        rng = np.random.default_rng(3)
        tracker = IncrementalOverlapTracker((N, N), capacity=4)
        window = []
        keys = random_adjacency(rng, 2).edge_keys()
        for version in range(9):
            drop = rng.random(len(keys)) < 0.15
            keys = np.union1d(keys[~drop], rng.integers(0, N * N, size=20))
            tracker.push(version, keys)
            window = (window + [CSRMatrix.from_edge_keys(keys, (N, N))])[-4:]
            decomposition = tracker.decomposition()
            assert_matches_eager(decomposition, window)
            if len(window) > 1:
                last = len(window) - 1
                assert_matches_eager(
                    refine_overlap(decomposition, [0, last]), [window[0], window[last]]
                )

    def test_a_read_part_is_held_as_its_csr_alone(self):
        rng = np.random.default_rng(7)
        adjacencies = [random_adjacency(rng, 1) for _ in range(2)]
        decomposition = extract_overlap(adjacencies)
        keys = decomposition.overlap_keys
        expected = keys.copy()
        held = weakref.ref(keys)
        del keys
        csr = decomposition.overlap
        assert held() is None  # the key array was dropped for the CSR
        again = decomposition.overlap_keys
        assert again.dtype == expected.dtype and np.array_equal(again, expected)
        assert decomposition.overlap is csr

    def test_no_csr_until_read(self, csr_builds):
        rng = np.random.default_rng(5)
        adjacencies = [random_adjacency(rng, 1) for _ in range(3)]
        del csr_builds[:]
        tracker = IncrementalOverlapTracker((N, N), capacity=3)
        for version, adjacency in enumerate(adjacencies):
            tracker.push(version, adjacency.edge_keys())
        full = extract_overlap(adjacencies)
        refined = refine_overlap(tracker.decomposition(), [0, 2])
        assert csr_builds == []
        refined.exclusive(1)
        assert len(csr_builds) == 1
        refined.exclusive(1)
        full.overlap
        assert len(csr_builds) == 2


class TestKernelsBuildOnFirstUse:
    def test_cost_builds_no_scipy_and_numerics_no_sliced_csr(self, monkeypatch):
        adjacency = random_adjacency(np.random.default_rng(2), 2)
        scipy_of, sliced_of = [], []
        to_scipy = CSRMatrix.to_scipy
        from_csr = SlicedCSRMatrix.from_csr.__func__
        monkeypatch.setattr(
            CSRMatrix, "to_scipy", lambda self: scipy_of.append(self) or to_scipy(self)
        )
        monkeypatch.setattr(
            SlicedCSRMatrix,
            "from_csr",
            classmethod(lambda cls, csr: sliced_of.append(csr) or from_csr(cls, csr)),
        )
        costed = SlicedParallelAggregation(adjacency, GPUSpec())
        computed = SlicedParallelAggregation(adjacency, GPUSpec())
        assert scipy_of == [] and sliced_of == []
        costed.forward_cost((N, 4))
        assert scipy_of == [] and len(sliced_of) == 1
        computed.forward(np.ones((N, 4), np.float32))
        assert len(scipy_of) == 1 and len(sliced_of) == 1


@pytest.fixture
def materializations(monkeypatch):
    """Records, during a fleet serve, what each aggregation kernel was asked
    for and under which request its SciPy matrix and sliced CSR were built."""
    record = {
        "kernels": [],  # (kernel, context at construction)
        "asked": defaultdict(set),  # id(kernel) -> {"numerics", "cost"}
        "built": [],  # (what, csr, context)
        "passes": defaultdict(list),  # id(PartitionKernels) -> snapshots computed per pass
        "sets": {},
    }
    context = []

    def within(tag, method):
        def wrapper(self, *args, **kwargs):
            context.append((tag, self))
            try:
                return method(self, *args, **kwargs)
            finally:
                context.pop()

        return wrapper

    def asked(what, method):
        def wrapper(self, *args, **kwargs):
            record["asked"][id(self)].add(what)
            return within(what, method)(self, *args, **kwargs)

        return wrapper

    kernel_init = BaseAggregationKernel.__init__

    def init(self, *args, **kwargs):
        kernel_init(self, *args, **kwargs)
        record["kernels"].append((self, context[-1] if context else None))

    monkeypatch.setattr(BaseAggregationKernel, "__init__", init)
    for name, what in (
        ("forward", "numerics"),
        ("backward", "numerics"),
        ("forward_cost", "cost"),
        ("backward_cost", "cost"),
    ):
        method = getattr(BaseAggregationKernel, name)
        monkeypatch.setattr(BaseAggregationKernel, name, asked(what, method))

    sets_init = PartitionKernels.__init__

    def init_set(self, *args, **kwargs):
        record["sets"][id(self)] = self
        within("partition_kernels", sets_init)(self, *args, **kwargs)

    monkeypatch.setattr(PartitionKernels, "__init__", init_set)
    aggregate = AggregationProvider.aggregate_many

    def aggregate_many(self, layer, xs):
        misses = self.cache_misses
        context.append(("aggregate", self.kernels))
        try:
            return aggregate(self, layer, xs)
        finally:
            context.pop()
            record["passes"][id(self.kernels)].append(self.cache_misses - misses)

    monkeypatch.setattr(AggregationProvider, "aggregate_many", aggregate_many)
    to_scipy = CSRMatrix.to_scipy
    from_csr = SlicedCSRMatrix.from_csr.__func__

    def recording_to_scipy(self):
        record["built"].append(("scipy", self, context[-1] if context else None))
        return to_scipy(self)

    def recording_from_csr(cls, csr):
        record["built"].append(("sliced", csr, context[-1] if context else None))
        return from_csr(cls, csr)

    monkeypatch.setattr(CSRMatrix, "to_scipy", recording_to_scipy)
    monkeypatch.setattr(SlicedCSRMatrix, "from_csr", classmethod(recording_from_csr))
    return record


def test_fleet_serve_builds_kernels_only_when_a_pass_needs_them(small_graph, materializations):
    model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
    engine = build_fleet_serving_engine(
        small_graph,
        model,
        FleetConfig(num_shards=2, min_replicas=2),
        ServingConfig(window=6, max_batch_requests=4, max_delay_ms=0.5),
    )
    engine.run_trace(synthesize_serving_trace(small_graph[-1], 60, seed=4))
    record = materializations

    # Every partition kernel is built inside a pass of its own set that
    # computes (misses the reuse cache), never when the set is built.
    partition_kernels = []
    for kernel, built_in in record["kernels"]:
        assert built_in is None or built_in[0] == "aggregate", built_in
        if built_in is not None:
            assert sum(record["passes"][id(built_in[1])]) > 0
            partition_kernels.append(kernel)
    assert partition_kernels
    served_from_cache = [
        kernels for key, kernels in record["sets"].items()
        if record["passes"][key] and sum(record["passes"][key]) == 0
    ]
    assert served_from_cache, "no partition was served fully from the reuse cache"
    owners = {id(built_in[1]) for _, built_in in record["kernels"] if built_in is not None}
    assert not owners & {id(s) for s in served_from_cache}

    # A kernel's SciPy matrix is built by its numerics and its sliced CSR
    # by its cost, each once; nothing else builds either.
    kernel_ids = {id(k) for k, _ in record["kernels"]}
    adjacencies = {id(k.adjacency) for k, _ in record["kernels"]}
    materialized = defaultdict(list)
    for what, csr, built_in in record["built"]:
        if id(csr) not in adjacencies:
            continue  # a snapshot's own adjacency (delta patching), not a kernel's
        expected = {"scipy": "numerics", "sliced": "cost"}[what]
        assert built_in is not None and built_in[0] == expected, (what, built_in)
        assert built_in[1].adjacency is csr
        materialized[what].append(id(built_in[1]))
    for what, asked in (("scipy", "numerics"), ("sliced", "cost")):
        assert len(materialized[what]) == len(set(materialized[what]))
        wanted = {i for i, asks in record["asked"].items() if asked in asks}
        assert set(materialized[what]) == wanted & kernel_ids
