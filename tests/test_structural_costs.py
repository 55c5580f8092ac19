"""Simulated time is a function of structure, not of values.

Every cost the simulator charges reads shapes, graph structure and cache
state, never a tensor's values.  On one graph, a model built from another
weight seed must therefore schedule op-for-op the same timelines: the same
labels, kinds, resources, streams, start and end times and dependencies.
So must the same model over the same topology with every feature scaled by
a constant.  A change that makes a cost read a value fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.base import collect_artifacts
from repro.api import Engine
from repro.api.cli import read_preset
from repro.graph import DynamicGraph, GraphSnapshot
from test_golden_digest import GOLDEN

#: name -> spec: golden configs by name, plus shipped presets
SPECS = {
    **{name: spec for name, (spec, _, _) in GOLDEN.items()},
    "pygt-baseline": read_preset("pygt-baseline"),
}


def _run(spec, graph):
    engine = Engine.from_spec(spec, graph=graph)
    if "serving" in spec:
        engine.serve()
    else:
        engine.train()
    return engine


def _records(run, op_records):
    artifacts = collect_artifacts(trainer=run._trainer, serving_engine=run._serving_engine)
    return op_records([timeline.ops for _, _, timeline in artifacts.timelines])


def _scaled(graph: DynamicGraph, factor: float) -> DynamicGraph:
    """``graph`` with every snapshot's features times ``factor``, same topology."""
    snapshots = [
        GraphSnapshot(
            adjacency=s.adjacency,
            features=s.features * np.float32(factor),
            targets=s.targets,
            timestep=s.timestep,
        )
        for s in graph.snapshots
    ]
    return DynamicGraph(snapshots, name=graph.name, metadata=dict(graph.metadata))


@pytest.mark.parametrize(
    "name", ["pipad-1gpu", "pipeline-4gpu", "fleet-serve", "pygt-baseline"]
)
def test_weight_seed_leaves_op_records_unchanged(name, op_records):
    spec = SPECS[name]
    graph = Engine.from_spec(spec).graph
    runs = [_run({**spec, "seed": seed}, graph) for seed in (0, 1)]
    weights = [run.model.parameters()[0].data for run in runs]
    assert not np.array_equal(*weights), "the weight seed did not change the model"
    assert runs[0]._training.final_loss != runs[1]._training.final_loss
    records = [_records(run, op_records) for run in runs]
    if name in GOLDEN:
        assert len(records[0]) == GOLDEN[name][1]
    assert records[0] == records[1]


@pytest.mark.parametrize("name", ["pipad-1gpu", "pygt-g"])
def test_scaled_features_leave_op_records_unchanged(name, op_records):
    spec = SPECS[name]
    graph = Engine.from_spec(spec).graph
    runs = [_run(spec, g) for g in (graph, _scaled(graph, 3.0))]
    assert runs[0]._training.final_loss != runs[1]._training.final_loss
    records = [_records(run, op_records) for run in runs]
    assert len(records[0]) == GOLDEN[name][1]
    assert records[0] == records[1]
