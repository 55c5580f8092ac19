"""Unified entry layer: declarative specs, one engine, one report.

Every scenario — any training method on one device, a data-parallel group
or a frame pipeline, with or without a local, sharded or fleet serving
section — is described by a serializable :class:`RunSpec` and executed by
one :class:`Engine`:

>>> from repro.api import Engine, RunSpec
>>> spec = RunSpec(dataset="covid19_england", model="tgcn", method="pipad")
>>> report = Engine.from_spec(spec).run()
>>> report.training.final_loss  # doctest: +SKIP

Specs round-trip through dicts and JSON (``RunSpec.from_dict``, ``.to_json``,
``.load``/``.save``), so runs are storable, diffable artifacts; the
``python -m repro`` CLI executes them directly.  The registries in
:mod:`repro.api.registries` make new device/serving topologies pluggable.
"""

from repro.api.engine import COLLECTIVE_KEYS, Engine, RunReport
from repro.gpu.interconnect import INTERCONNECT_KINDS
from repro.api.registries import (
    DEVICE_REGISTRY,
    SERVING_REGISTRY,
    DeviceKind,
    ServingKind,
    build_serving,
    build_trainer,
    trainer_registry,
)
from repro.api.spec import (
    DEVICE_KINDS,
    PIPAD_FIELDS,
    SERVING_KINDS,
    AnalysisSpec,
    DataSpec,
    DeviceSpec,
    MemorySpec,
    RunSpec,
    ServingSpec,
    TelemetrySpec,
    TraceSpec,
)

__all__ = [
    "AnalysisSpec",
    "COLLECTIVE_KEYS",
    "DEVICE_KINDS",
    "DEVICE_REGISTRY",
    "DataSpec",
    "DeviceKind",
    "DeviceSpec",
    "Engine",
    "INTERCONNECT_KINDS",
    "MemorySpec",
    "PIPAD_FIELDS",
    "RunReport",
    "RunSpec",
    "SERVING_KINDS",
    "SERVING_REGISTRY",
    "ServingKind",
    "ServingSpec",
    "TelemetrySpec",
    "TraceSpec",
    "build_serving",
    "build_trainer",
    "trainer_registry",
]
