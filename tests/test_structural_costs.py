"""Simulated time is a function of structure, not of values.

Every cost the simulator charges reads shapes, graph structure and cache
state, never a tensor's values.  On one graph, a model built from another
weight seed must therefore schedule op-for-op the same timelines: the same
labels, kinds, resources, streams, start and end times and dependencies.  A
change that makes a cost read a value fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.base import collect_artifacts
from repro.api import Engine
from test_golden_digest import GOLDEN


def _run(spec, graph):
    engine = Engine.from_spec(spec, graph=graph)
    if "serving" in spec:
        engine.serve()
    else:
        engine.train()
    return engine


@pytest.mark.parametrize("name", ["pipad-1gpu", "pipeline-4gpu", "fleet-serve"])
def test_weight_seed_leaves_op_records_unchanged(name, op_records):
    spec = GOLDEN[name][0]
    graph = Engine.from_spec(spec).graph
    runs = [_run({**spec, "seed": seed}, graph) for seed in (0, 1)]
    weights = [run.model.parameters()[0].data for run in runs]
    assert not np.array_equal(*weights), "the weight seed did not change the model"
    assert runs[0]._training.final_loss != runs[1]._training.final_loss
    records = [
        op_records(
            [
                timeline.ops
                for _, _, timeline in collect_artifacts(
                    trainer=run._trainer, serving_engine=run._serving_engine
                ).timelines
            ]
        )
        for run in runs
    ]
    assert len(records[0]) == GOLDEN[name][1]
    assert records[0] == records[1]
