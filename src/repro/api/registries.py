"""Unified registries the engine resolves specs through.

Four registries cover the whole construction space:

- the **trainer registry** (owned by :mod:`repro.baselines`; re-exposed here)
  maps method names to trainer classes — ``pygt``/``pygt-a``/``pygt-r``/
  ``pygt-g``/``pipad``;
- :data:`MODEL_REGISTRY` and :data:`DATASET_ORDER` are re-exports of the
  existing model/dataset name spaces;
- :data:`DEVICE_REGISTRY` maps a device topology kind to the builder that
  wires a trainer for it (``single`` → the method's own trainer class,
  ``group`` → :class:`~repro.core.distributed_trainer.DistributedTrainer`,
  ``pipeline`` → :class:`~repro.core.pipeline_trainer.PipelineTrainer`);
- :data:`SERVING_REGISTRY` maps a serving topology kind to the builder that
  wires the online engine (``local`` → one
  :class:`~repro.serving.scheduler.ServingScheduler`, ``sharded`` →
  :class:`~repro.distributed.serving.ShardedServingEngine`, ``fleet`` →
  :class:`~repro.distributed.fleet.FleetServingEngine` with a node-sharded
  store, admission control and an elastic replica pool).

Every builder takes ``(spec, graph, ...)`` so new topologies plug in by
registration instead of another bespoke construction path.  The spec's
sections are the runtime configs, so the builders pass them straight
through: ``spec.pipad``, ``spec.device`` (the group trainers'
:class:`~repro.core.group_trainer.GroupConfig`), ``spec.data`` (the
:class:`~repro.core.datapipe.DataPipeConfig`; the datapipe has one stage
chain, so it needs no registry), ``spec.memory`` and ``spec.serving`` (the
scheduler's and the fleet's configs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Type, Union

from repro.api.spec import RunSpec
from repro.baselines import _registry as _trainer_registry
from repro.baselines.base import DGNNTrainerBase
from repro.graph.datasets import DATASET_ORDER
from repro.graph.dynamic_graph import DynamicGraph
from repro.nn import MODEL_REGISTRY
from repro.nn.base_model import DGNNModel


def trainer_registry() -> Dict[str, Type[DGNNTrainerBase]]:
    """Method name -> trainer class (the baselines registry, unchanged)."""
    return _trainer_registry()


# ------------------------------------------------------------------ devices
def _build_single_device_trainer(spec: RunSpec, graph: DynamicGraph) -> DGNNTrainerBase:
    cls = trainer_registry()[spec.method]
    if spec.method == "pipad":
        return cls(
            graph,
            spec.trainer_config(),
            pipad_config=spec.pipad,
            data_config=spec.data,
            memory_config=spec.memory,
        )
    return cls(graph, spec.trainer_config())


def _build_group_trainer(spec: RunSpec, graph: DynamicGraph) -> DGNNTrainerBase:
    from repro.core.distributed_trainer import DistributedTrainer

    return DistributedTrainer(
        graph, spec.trainer_config(), spec.pipad, spec.device, spec.data, spec.memory
    )


def _build_pipeline_trainer(spec: RunSpec, graph: DynamicGraph) -> DGNNTrainerBase:
    from repro.core.pipeline_trainer import PipelineTrainer

    return PipelineTrainer(
        graph, spec.trainer_config(), spec.pipad, spec.device, spec.data, spec.memory
    )


@dataclass(frozen=True)
class DeviceKind:
    """One device topology the engine can resolve a spec onto."""

    name: str
    description: str
    build: Callable[[RunSpec, DynamicGraph], DGNNTrainerBase]


DEVICE_REGISTRY: Dict[str, DeviceKind] = {
    "single": DeviceKind(
        "single",
        "one simulated GPU; the method's own trainer class",
        _build_single_device_trainer,
    ),
    "group": DeviceKind(
        "group",
        "K-device group with ring collectives (DistributedTrainer)",
        _build_group_trainer,
    ),
    "pipeline": DeviceKind(
        "pipeline",
        "K-stage frame pipeline with p2p state handoff (PipelineTrainer)",
        _build_pipeline_trainer,
    ),
}


# ------------------------------------------------------------------ serving
def _serving_scale(spec: RunSpec) -> float:
    """Per-row cost multiplier the serving engines inherit from the spec.

    Only an *explicit* ``cost_scale`` carries over — the dataset-derived
    training default stays a training concern, so specs without the knob
    keep today's serving timings bit-for-bit.
    """
    return float(spec.cost_scale) if spec.cost_scale is not None else 1.0


def _build_local_serving(
    spec: RunSpec, graph: DynamicGraph, model: DGNNModel
) -> "ServingScheduler":  # noqa: F821 - forward ref
    from repro.serving.scheduler import _build_serving_scheduler

    assert spec.serving is not None
    return _build_serving_scheduler(
        graph,
        model,
        spec.serving,
        data=spec.data,
        scale=_serving_scale(spec),
        memory=spec.memory,
    )


def _build_sharded_serving(
    spec: RunSpec, graph: DynamicGraph, model: DGNNModel
) -> "ShardedServingEngine":  # noqa: F821 - forward ref
    from repro.distributed.serving import build_sharded_serving_engine

    assert spec.serving is not None
    return build_sharded_serving_engine(
        graph,
        model,
        spec.serving.num_shards,
        spec.serving,
        data=spec.data,
        scale=_serving_scale(spec),
        memory=spec.memory,
    )


def _build_fleet_serving(
    spec: RunSpec, graph: DynamicGraph, model: DGNNModel
) -> "FleetServingEngine":  # noqa: F821 - forward ref
    from repro.distributed.fleet import build_fleet_serving_engine

    assert spec.serving is not None
    return build_fleet_serving_engine(
        graph,
        model,
        fleet=spec.serving,
        config=spec.serving,
        data=spec.data,
        scale=_serving_scale(spec),
        memory=spec.memory,
    )


@dataclass(frozen=True)
class ServingKind:
    """One serving topology the engine can resolve a spec onto."""

    name: str
    description: str
    build: Callable[[RunSpec, DynamicGraph, DGNNModel], object]


SERVING_REGISTRY: Dict[str, ServingKind] = {
    "local": ServingKind(
        "local",
        "one ServingScheduler replica on one simulated GPU",
        _build_local_serving,
    ),
    "sharded": ServingKind(
        "sharded",
        "ShardedServingEngine: round-robin routing over K replicas",
        _build_sharded_serving,
    ),
    "fleet": ServingKind(
        "fleet",
        "FleetServingEngine: node-sharded store, load-aware admission "
        "control, elastic replica pool",
        _build_fleet_serving,
    ),
}


def build_trainer(spec: RunSpec, graph: DynamicGraph) -> DGNNTrainerBase:
    """Resolve a spec's method + device topology into a wired trainer."""
    return DEVICE_REGISTRY[spec.device.kind].build(spec, graph)


def build_serving(
    spec: RunSpec, graph: DynamicGraph, model: DGNNModel
) -> Union["ServingScheduler", "ShardedServingEngine"]:  # noqa: F821
    """Resolve a spec's serving section into a wired online engine."""
    if spec.serving is None:
        raise ValueError(
            "spec has no serving section; set RunSpec.serving to build an "
            "online engine"
        )
    return SERVING_REGISTRY[spec.serving.kind].build(spec, graph, model)


__all__ = [
    "DATASET_ORDER",
    "DEVICE_REGISTRY",
    "DeviceKind",
    "MODEL_REGISTRY",
    "SERVING_REGISTRY",
    "ServingKind",
    "build_serving",
    "build_trainer",
    "trainer_registry",
]
