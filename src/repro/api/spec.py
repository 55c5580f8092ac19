"""Declarative run specifications — one serializable description per scenario.

A :class:`RunSpec` captures everything the repo can execute — dataset, model,
training method, PiPAD runtime knobs, device topology and an optional
serving section — as plain data.  Each section is, or extends, the runtime
config it feeds, so every field and every rule is declared once, by that
config, and the engine receives the sections as they are:

- ``pipad`` is a :class:`~repro.core.config.PiPADConfig` and ``memory`` a
  :class:`~repro.memory.cache.MemoryConfig`;
- ``device`` is a :class:`~repro.core.group_trainer.GroupConfig` plus its
  ``kind``, and ``data`` a :class:`~repro.core.datapipe.DataPipeConfig`
  plus its ``pipeline``;
- ``serving`` is a :class:`~repro.serving.scheduler.ServingConfig` and a
  :class:`~repro.serving.scheduler.FleetConfig` plus its ``kind`` and
  ``trace``.

Specs round-trip losslessly through ``to_dict``/``from_dict`` and JSON,
reject unknown keys, non-bool values of bool fields, non-integer values of
int fields and a null required section at every nesting level, and validate all names against the live registries at construction
time, so a typo fails immediately with the list of valid choices instead of
deep inside a sweep.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Type, TypeVar, Union

from repro.core.config import PiPADConfig
from repro.core.datapipe import DataPipeConfig
from repro.core.group_trainer import GroupConfig
from repro.gpu.spec import GPUSpec
from repro.memory.cache import MemoryConfig
from repro.serving.scheduler import FleetConfig, ServingConfig
from repro.utils.validation import check_choice, check_positive

#: device topologies understood by the engine (keys of ``DEVICE_REGISTRY``)
DEVICE_KINDS: Tuple[str, ...] = ("single", "group", "pipeline")

#: serving topologies understood by the engine (keys of ``SERVING_REGISTRY``)
SERVING_KINDS: Tuple[str, ...] = ("local", "sharded", "fleet")

_T = TypeVar("_T")


def _known_choices(valid: Union[Mapping[str, Any], Tuple[str, ...], list]) -> str:
    return ", ".join(sorted(valid))


def _to_plain(value: Any) -> Any:
    """Plain-data view of a section (tuples become lists, configs dicts)."""
    if dataclasses.is_dataclass(value):
        return {f.name: _to_plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_plain(v) for v in value]
    return value


def _from_plain(cls: Type[_T], data: Any) -> _T:
    """Build a section from plain data.

    Rejects unknown keys, a non-bool value in a field typed ``bool`` (the
    string ``"no"`` would otherwise run as true), and a non-integer or a
    bool in a field typed ``int`` (``epochs=2.5`` would otherwise pass and
    fail deep inside a run).  Every other rule belongs to the section's own
    ``__post_init__``.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"{cls.__name__} expects a mapping, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}  # type: ignore[arg-type]
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} key(s) {sorted(unknown)}; "
            f"valid keys: {_known_choices(known)}"
        )
    for key, value in data.items():
        kind = known[key].type
        if kind in (bool, "bool") and not isinstance(value, bool):
            raise ValueError(
                f"{cls.__name__}.{key} must be true or false, got {value!r}"
            )
        if kind in (int, "int") and (not isinstance(value, int) or isinstance(value, bool)):
            raise ValueError(f"{cls.__name__}.{key} must be an integer, got {value!r}")
    return cls(**data)


class _SpecBase:
    """Shared dict/JSON plumbing for the spec dataclasses."""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view (tuples become lists, nested sections dicts)."""
        return _to_plain(self)

    @classmethod
    def from_dict(cls: Type[_T], data: Mapping[str, Any]) -> _T:
        """Inverse of :meth:`to_dict`; raises on unknown keys."""
        return _from_plain(cls, data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls: Type[_T], text: str) -> _T:
        return cls.from_dict(json.loads(text))  # type: ignore[attr-defined]

    def replace(self: _T, **changes: Any) -> _T:
        return dataclasses.replace(self, **changes)  # type: ignore[type-var]


@dataclass(frozen=True)
class DeviceSpec(_SpecBase, GroupConfig):
    """Device topology: the trainers' :class:`GroupConfig` plus its ``kind``.

    ``schedule`` is consulted by kind ``"pipeline"`` only and validated for
    every kind.
    """

    #: ``"single"`` (one simulated GPU), ``"group"`` (node-sharded device
    #: group) or ``"pipeline"`` (snapshot groups pipelined across devices)
    kind: str = "single"

    def __post_init__(self) -> None:
        check_choice("device kind", self.kind, DEVICE_KINDS, "kinds")
        super().__post_init__()
        if self.kind == "single" and self.num_devices != 1:
            raise ValueError(
                f"device kind 'single' requires num_devices=1, got {self.num_devices}; "
                "use kind='group' or kind='pipeline' for multi-device runs"
            )


@dataclass(frozen=True)
class TraceSpec(_SpecBase):
    """Parameters of a synthesized delta/request serving trace."""

    num_events: int = 160
    request_fraction: float = 0.7
    nodes_per_request: int = 8
    mean_interarrival_ms: float = 0.5
    seed: int = 7

    def __post_init__(self) -> None:
        check_positive("num_events", self.num_events)
        check_positive("nodes_per_request", self.nodes_per_request)
        if not 0.0 <= self.request_fraction <= 1.0:
            raise ValueError(
                f"request_fraction must be in [0, 1], got {self.request_fraction}"
            )
        if self.mean_interarrival_ms <= 0:
            raise ValueError(
                f"mean_interarrival_ms must be > 0, got {self.mean_interarrival_ms}"
            )


@dataclass(frozen=True)
class TelemetrySpec(_SpecBase):
    """Observability section of a run: its exporters.

    ``trace_path``/``report_path`` are export destinations the engine writes
    after :meth:`~repro.api.engine.Engine.run` (the CLI's ``--trace`` /
    ``--save-report`` flags set them).  While telemetry is enabled, the
    tracing and metrics sinks record every lifecycle event.
    """

    enabled: bool = True
    #: Chrome-trace-event JSON destination (None -> no trace export)
    trace_path: Optional[str] = None
    #: run-report JSON destination (None -> no report export)
    report_path: Optional[str] = None


@dataclass(frozen=True)
class DataSpec(_SpecBase, DataPipeConfig):
    """Data-pipeline section of a run: the :class:`DataPipeConfig` every
    trainer and serving replica shares, plus its stage chain.

    Partition data always moves through the staged
    ``slice → gather → pin → h2d`` chain.  Scheduling-only: losses and
    predictions are identical for every setting.
    """

    #: the stage chain; ``"staged"`` is the only one
    pipeline: str = "staged"

    def __post_init__(self) -> None:
        check_choice("datapipe pipeline", self.pipeline, ("staged",), "pipelines")
        super().__post_init__()


@dataclass(frozen=True)
class ServingSpec(_SpecBase, ServingConfig, FleetConfig):
    """Online-serving section of a run: the scheduler's
    :class:`ServingConfig` and the fleet's :class:`FleetConfig`, plus the
    engine ``kind`` and the ``trace`` it replays.

    Both configs are validated for every kind, so each knob is checked once,
    by its own rule, before any engine exists.  ``ServingConfig`` rejects a
    ``fixed_s_per`` above the ``window``; a ``"fleet"`` spec also rejects a
    ``max_batch_requests`` above its ``admission_limit``, since no replica
    could ever form a full batch.  The fleet knobs are consulted by kind
    ``"fleet"`` only.
    """

    #: ``"local"`` (one :class:`ServingScheduler`), ``"sharded"``
    #: (:class:`ShardedServingEngine`: ``num_shards`` replicas over one
    #: shared store, round-robin routing) or ``"fleet"``
    #: (:class:`FleetServingEngine`: node-ownership routing, admission
    #: control, elastic replica pool)
    kind: str = "local"
    #: trace replayed by ``Engine.serve()`` when none is passed explicitly
    trace: TraceSpec = field(default_factory=TraceSpec)

    def __post_init__(self) -> None:
        if isinstance(self.trace, Mapping):
            object.__setattr__(self, "trace", TraceSpec.from_dict(self.trace))
        check_choice("serving kind", self.kind, SERVING_KINDS, "kinds")
        ServingConfig.__post_init__(self)
        FleetConfig.__post_init__(self)
        if self.kind == "local" and self.num_shards != 1:
            raise ValueError(
                f"serving kind 'local' requires num_shards=1, got {self.num_shards}; "
                "use kind='sharded' for multi-replica serving"
            )
        if self.kind in ("sharded", "fleet") and self.num_shards < 2:
            raise ValueError(
                f"serving kind {self.kind!r} requires num_shards>=2, got "
                f"{self.num_shards}"
            )
        if self.kind == "fleet" and self.max_batch_requests > self.admission_limit:
            raise ValueError(
                f"serving.max_batch_requests ({self.max_batch_requests}) "
                f"exceeds serving.admission_limit ({self.admission_limit}): "
                "a replica sheds requests before a full batch can ever form; "
                "raise the admission limit or shrink the batch"
            )


@dataclass(frozen=True)
class AnalysisSpec(_SpecBase):
    """Sanitizer section of a run: which checks gate it, and how hard.

    With ``enabled`` the engine replays the finished run through the
    execution checkers (happens-before races, collective lint, memory
    watermarks) plus the static spec lint, surfaces violations in
    ``RunReport.extras["analysis"]`` and as Chrome-trace instant events,
    and fails the run on any error-severity finding once the trace and
    report are exported.  ``python -m repro check`` runs the static
    family alone, no engine required.  The static family only warns
    (``spec-dead-memory``, ``spec-prefetch-pipeline``): the cross-section
    errors (partition sizes vs. frame and window, window vs. stream,
    fleet batch vs. admission limit) are enforced by spec construction.
    """

    enabled: bool = False
    #: check selection from ``repro.analysis.CHECK_REGISTRY``; empty = all
    checks: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        from repro.analysis import resolve_checks

        if not isinstance(self.checks, tuple):
            object.__setattr__(self, "checks", tuple(self.checks))
        resolve_checks(self.checks)  # rejects unknown names with the catalog


#: RunSpec field -> the section class its plain-data form builds
_SECTIONS: Dict[str, type] = {
    "pipad": PiPADConfig,
    "device": DeviceSpec,
    "data": DataSpec,
    "memory": MemoryConfig,
    "serving": ServingSpec,
    "telemetry": TelemetrySpec,
    "analysis": AnalysisSpec,
}


@dataclass(frozen=True)
class RunSpec(_SpecBase):
    """One declarative, serializable description of an executable run.

    Construction builds every section and the :class:`TrainerConfig`, so no
    value an engine would reject gets past it, and it enforces the rules
    that span sections: ``pipad.fixed_s_per`` fits ``frame_size``, the
    serving ``window`` fits ``num_snapshots``, the GPU-tier budget leaves
    HBM for the reuse buffer, and (in :class:`ServingSpec`) the serving
    ``fixed_s_per`` fits the window and a fleet's ``max_batch_requests``
    fits its ``admission_limit``.
    """

    #: dataset analogue (any name in ``repro.graph.datasets.DATASET_ORDER``)
    dataset: str = "covid19_england"
    #: DGNN model (any name in ``repro.nn.MODEL_REGISTRY``)
    model: str = "tgcn"
    #: training method (any key of the baselines trainer registry)
    method: str = "pipad"
    num_snapshots: int = 12
    frame_size: int = 8
    epochs: int = 3
    lr: float = 1e-3
    seed: int = 0
    hidden_dim: Optional[int] = None
    #: workload-extrapolation factor; ``None`` derives it from the dataset
    cost_scale: Optional[float] = None
    #: PiPAD runtime knobs (only consulted by PiPAD-family methods)
    pipad: PiPADConfig = field(default_factory=PiPADConfig)
    device: DeviceSpec = field(default_factory=DeviceSpec)
    #: data pipeline: stage composition, prefetch depth, pinning
    data: DataSpec = field(default_factory=DataSpec)
    #: multi-tier feature cache: on/off, tier budgets, block size
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    #: optional online-serving phase; ``None`` means a training-only run
    serving: Optional[ServingSpec] = None
    #: observability: exporters (enabled by default)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)
    #: sanitizer: check selection (off by default)
    analysis: AnalysisSpec = field(default_factory=AnalysisSpec)

    def __post_init__(self) -> None:
        from repro.baselines import _registry
        from repro.graph.datasets import DATASET_ORDER
        from repro.nn import MODEL_REGISTRY

        # Accept plain mappings for the nested sections (the JSON form, and
        # the literal form ``RunSpec(device={"kind": "group", ...})``).
        for name, section_cls in _SECTIONS.items():
            value = getattr(self, name)
            if value is None and name != "serving":
                raise ValueError(f"RunSpec.{name} must be a mapping, got null")
            if isinstance(value, Mapping):
                object.__setattr__(self, name, _from_plain(section_cls, value))

        dataset_key = self.dataset.lower().replace("-", "_")
        if dataset_key not in DATASET_ORDER:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; valid datasets: "
                f"{_known_choices(tuple(DATASET_ORDER))}"
            )
        model_key = self.model.lower().replace("-", "_")
        if model_key not in MODEL_REGISTRY:
            raise ValueError(
                f"unknown model {self.model!r}; valid models: "
                f"{_known_choices(MODEL_REGISTRY)}"
            )
        method_key = self.method.lower().replace("_", "-")
        registry = _registry()
        if method_key not in registry:
            raise ValueError(
                f"unknown method {self.method!r}; valid methods: "
                f"{_known_choices(registry)}"
            )
        check_positive("num_snapshots", self.num_snapshots)
        self.trainer_config()
        if self.device.kind != "single" and method_key != "pipad":
            raise ValueError(
                f"device kind {self.device.kind!r} is only supported by method "
                f"'pipad' (DistributedTrainer/PipelineTrainer), got method "
                f"{self.method!r}"
            )
        fixed = self.pipad.fixed_s_per
        if fixed is not None and fixed > self.frame_size:
            raise ValueError(
                f"pipad.fixed_s_per ({fixed}) exceeds frame_size "
                f"({self.frame_size}): a partition cannot span more "
                "snapshots than its frame holds"
            )
        if self.serving is not None and self.serving.window > self.num_snapshots:
            raise ValueError(
                f"serving.window ({self.serving.window}) exceeds num_snapshots "
                f"({self.num_snapshots}): the store can never fill its "
                "window; shrink the window or extend the stream"
            )
        # A run's devices are the default GPUSpec.  A GPU tier that takes all
        # of their HBM leaves none for the reuse buffer, which would fail
        # only once the trainer allocates it.
        hbm_mb = GPUSpec().memory_bytes / (1024 * 1024)
        budget_mb = self.memory.gpu_budget_mb
        if budget_mb is not None and budget_mb >= hbm_mb:
            raise ValueError(
                f"gpu_budget_mb must be below the device's {hbm_mb:g} MiB of HBM, "
                f"got {budget_mb:g}: the GPU tier would leave no device "
                "memory for the reuse buffer"
            )
        # Frozen dataclass: normalize names via object.__setattr__ so the
        # engine and registries can rely on canonical keys downstream.
        object.__setattr__(self, "dataset", dataset_key)
        object.__setattr__(self, "model", model_key)
        object.__setattr__(self, "method", method_key)

    def trainer_config(self) -> "TrainerConfig":  # noqa: F821 - forward ref
        """Materialize the shared :class:`TrainerConfig` for this spec."""
        from repro.baselines import TrainerConfig

        return TrainerConfig(
            model=self.model,
            hidden_dim=self.hidden_dim,
            frame_size=self.frame_size,
            epochs=self.epochs,
            lr=self.lr,
            seed=self.seed,
            cost_scale=self.cost_scale,
        )

    # ------------------------------------------------------------------ files
    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec as JSON; returns the path."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunSpec":
        """Read a spec from a JSON file."""
        return cls.from_json(Path(path).read_text())
