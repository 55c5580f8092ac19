"""Declarative run specifications — one serializable description per scenario.

A :class:`RunSpec` captures everything the repo can execute — dataset, model,
training method, PiPAD runtime overrides, device topology and an optional
serving section — as plain data.  Specs round-trip losslessly through
``to_dict``/``from_dict`` and JSON, reject unknown keys at every nesting
level, and validate all names against the live registries at construction
time, so a typo fails immediately with the list of valid choices instead of
deep inside a sweep.

The :class:`~repro.api.engine.Engine` façade consumes a spec and resolves it
into the concrete trainer / serving engine; nothing here imports the heavy
execution machinery, so specs stay cheap to build, compare and serialize.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Type, TypeVar, Union

from repro.core.config import PiPADConfig
from repro.gpu.spec import GPUSpec
from repro.utils.validation import check_choice, check_positive

#: device topologies understood by the engine (keys of ``DEVICE_REGISTRY``)
DEVICE_KINDS: Tuple[str, ...] = ("single", "group", "pipeline")

#: serving topologies understood by the engine (keys of ``SERVING_REGISTRY``)
SERVING_KINDS: Tuple[str, ...] = ("local", "sharded", "fleet")

#: names of the :class:`PiPADConfig` knobs a spec may override
PIPAD_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(PiPADConfig))

_T = TypeVar("_T", bound="_SpecBase")


def _known_choices(valid: Union[Mapping[str, Any], Tuple[str, ...], list]) -> str:
    return ", ".join(sorted(valid))


def _reject_unknown_keys(cls: type, data: Mapping[str, Any]) -> None:
    valid = {f.name for f in fields(cls)}
    unknown = set(data) - valid
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} key(s) {sorted(unknown)}; "
            f"valid keys: {_known_choices(valid)}"
        )


class _SpecBase:
    """Shared dict/JSON plumbing for the spec dataclasses."""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view (tuples become lists, nested specs become dicts)."""

        def convert(value: Any) -> Any:
            if isinstance(value, _SpecBase):
                return value.to_dict()
            if isinstance(value, tuple):
                return [convert(v) for v in value]
            if isinstance(value, dict):
                return {k: convert(v) for k, v in value.items()}
            return value

        return {
            f.name: convert(getattr(self, f.name)) for f in fields(self)  # type: ignore[arg-type]
        }

    @classmethod
    def from_dict(cls: Type[_T], data: Mapping[str, Any]) -> _T:
        """Inverse of :meth:`to_dict`; raises on unknown keys."""
        if not isinstance(data, Mapping):
            raise ValueError(f"{cls.__name__} expects a mapping, got {type(data).__name__}")
        _reject_unknown_keys(cls, data)
        kwargs: Dict[str, Any] = {}
        nested = {f.name: f for f in fields(cls)}
        for key, value in data.items():
            spec_cls = _NESTED_SPECS.get((cls.__name__, key))
            if spec_cls is not None and value is not None:
                value = spec_cls.from_dict(value)
            elif nested[key].name in _TUPLE_FIELDS.get(cls.__name__, ()):
                if value is not None:
                    value = tuple(value)
            kwargs[key] = value
        return cls(**kwargs)  # type: ignore[call-arg]

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls: Type[_T], text: str) -> _T:
        return cls.from_dict(json.loads(text))

    def replace(self: _T, **changes: Any) -> _T:
        return dataclasses.replace(self, **changes)  # type: ignore[type-var]


@dataclass(frozen=True)
class DeviceSpec(_SpecBase):
    """Device topology: one GPU, a sharded group, or a frame pipeline."""

    #: ``"single"`` (one simulated GPU), ``"group"`` (node-sharded device
    #: group) or ``"pipeline"`` (snapshot groups pipelined across devices)
    kind: str = "single"
    #: number of devices in the group/pipeline (must be 1 for ``"single"``)
    num_devices: int = 1
    #: peer-link model between group devices (``"nvlink"`` or ``"pcie"``)
    interconnect: str = "nvlink"
    #: node-assignment strategy of the partitioner (``"edges"`` or ``"nodes"``;
    #: only consulted by kind ``"group"``)
    partition_mode: str = "edges"
    #: stage-assignment strategy of the frame partitioner (``"round_robin"``
    #: or ``"blocked"``; only consulted by kind ``"pipeline"``)
    schedule: str = "round_robin"

    def __post_init__(self) -> None:
        check_choice("device kind", self.kind, DEVICE_KINDS, "kinds")
        # Both core configs, for every kind: a 'single' spec still rejects a
        # bad interconnect or schedule.
        self.to_distributed_config()
        self.to_pipeline_config()
        if self.kind == "single" and self.num_devices != 1:
            raise ValueError(
                f"device kind 'single' requires num_devices=1, got {self.num_devices}; "
                "use kind='group' or kind='pipeline' for multi-device runs"
            )
        # 'group' and 'pipeline' allow num_devices=1: a one-device run is the
        # reference of scaling sweeps (same trainer class, no collectives).

    def to_distributed_config(self) -> "DistributedConfig":  # noqa: F821
        """Materialize the group trainer's :class:`DistributedConfig`."""
        from repro.core.distributed_trainer import DistributedConfig

        return DistributedConfig(
            num_devices=self.num_devices,
            partition_mode=self.partition_mode,
            interconnect=self.interconnect,
        )

    def to_pipeline_config(self) -> "PipelineConfig":  # noqa: F821
        """Materialize the pipeline trainer's :class:`PipelineConfig`."""
        from repro.core.pipeline_trainer import PipelineConfig

        return PipelineConfig(
            num_devices=self.num_devices,
            interconnect=self.interconnect,
            schedule=self.schedule,
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
    """Observability section of a run: exporters and callback sinks.

    ``trace_path``/``report_path`` are export destinations the engine writes
    after :meth:`~repro.api.engine.Engine.run` (the CLI's ``--trace`` /
    ``--save-report`` flags set them); ``callbacks`` selects extra sinks from
    the telemetry callback registry (the tracing and metrics sinks are always
    active while telemetry is enabled).
    """

    enabled: bool = True
    #: Chrome-trace-event JSON destination (None -> no trace export)
    trace_path: Optional[str] = None
    #: run-report JSON destination (None -> no report export)
    report_path: Optional[str] = None
    #: extra callback sinks by registry name (e.g. ``("logging",)``)
    callbacks: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        from repro.telemetry.hooks import CALLBACK_REGISTRY

        if not isinstance(self.callbacks, tuple):
            object.__setattr__(self, "callbacks", tuple(self.callbacks))
        unknown = set(self.callbacks) - set(CALLBACK_REGISTRY)
        if unknown:
            raise ValueError(
                f"unknown telemetry callback(s) {sorted(unknown)}; "
                f"valid callbacks: {_known_choices(CALLBACK_REGISTRY)}"
            )


@dataclass(frozen=True)
class DataSpec(_SpecBase):
    """Data-pipeline section of a run: prefetching and pinning.

    Partition data always moves through the staged
    ``slice → gather → pin → h2d`` chain; this section declares how many
    items the :class:`~repro.core.datapipe.Prefetcher` may prepare ahead of
    the one currently computing, and whether transfers stage through
    page-locked memory.  ``to_pipe_config`` materializes the
    :class:`~repro.core.datapipe.DataPipeConfig` every trainer and serving
    replica shares.  Scheduling-only: losses and predictions are identical
    for every setting.
    """

    #: the stage chain; ``"staged"`` is the only one
    pipeline: str = "staged"
    #: max items prepared ahead of the one computing; 0 fully serializes
    prefetch_depth: int = 2
    #: stage transfers through page-locked memory (adds the ``pin`` stage;
    #: unpinned transfers pay the PCIe pageable penalty instead)
    pin_memory: bool = True

    def __post_init__(self) -> None:
        check_choice("datapipe pipeline", self.pipeline, ("staged",), "pipelines")
        self.to_pipe_config()

    def to_pipe_config(self) -> "DataPipeConfig":  # noqa: F821 - forward ref
        """Materialize the core-level :class:`DataPipeConfig`."""
        from repro.core.datapipe import DataPipeConfig

        return DataPipeConfig(
            prefetch_depth=self.prefetch_depth,
            pin_memory=self.pin_memory,
        )


@dataclass(frozen=True)
class MemorySpec(_SpecBase):
    """Memory section of a run: the multi-tier feature cache.

    Declares whether feature rows flow through the
    :class:`~repro.memory.FeatureCache` (GPU-resident tier over
    pinned-host and host-spill tiers) and how the tiers are sized.  The
    GPU-tier budget is derived from ``GPUSpec.memory_gb`` minus the
    model/activation reservations (``gpu/memory_model.
    feature_cache_budget_bytes``) unless ``gpu_budget_mb`` pins it
    explicitly.  Accounting-only: losses and predictions are identical
    with the cache on or off — but graphs whose feature bytes exceed a
    device's HBM *require* ``feature_cache=true`` to run at all.
    """

    #: route feature rows through the multi-tier cache
    feature_cache: bool = False
    #: eviction policy (key of ``repro.memory.CACHE_POLICY_REGISTRY``)
    policy: str = "lru"
    #: fraction of HBM left after model/activation reservations granted
    #: to the GPU tier (ignored when ``gpu_budget_mb`` is set)
    gpu_budget_fraction: float = 0.5
    #: explicit GPU-tier budget in MiB (``None`` derives it from the spec)
    gpu_budget_mb: Optional[float] = None
    #: pinned-host tier budget in MiB (the pin stage's staging buffer)
    pinned_budget_mb: float = 256.0
    #: host-spill tier budget in MiB (``None`` = unbounded host memory)
    spill_budget_mb: Optional[float] = None
    #: feature rows per cache block (granularity of hits and invalidation)
    block_rows: int = 256

    def __post_init__(self) -> None:
        self.to_memory_config()
        # A run's devices are the default GPUSpec.  A GPU tier that takes all
        # of their HBM leaves none for the reuse buffer, which would fail
        # only once the trainer allocates it.
        hbm_mb = GPUSpec().memory_bytes / (1024 * 1024)
        if self.gpu_budget_mb is not None and self.gpu_budget_mb >= hbm_mb:
            raise ValueError(
                f"gpu_budget_mb must be below the device's {hbm_mb:g} MiB of HBM, "
                f"got {self.gpu_budget_mb:g}: the GPU tier would leave no device "
                "memory for the reuse buffer"
            )

    def to_memory_config(self) -> "MemoryConfig":  # noqa: F821 - forward ref
        """Materialize the core-level :class:`repro.memory.MemoryConfig`."""
        from repro.memory.cache import MemoryConfig

        return MemoryConfig(
            feature_cache=self.feature_cache,
            policy=self.policy,
            gpu_budget_fraction=self.gpu_budget_fraction,
            gpu_budget_mb=self.gpu_budget_mb,
            pinned_budget_mb=self.pinned_budget_mb,
            spill_budget_mb=self.spill_budget_mb,
            block_rows=self.block_rows,
        )


@dataclass(frozen=True)
class ServingSpec(_SpecBase):
    """Online-serving section of a run: engine topology + scheduler knobs.

    Construction builds the core :class:`ServingConfig` and
    :class:`FleetConfig` for every kind, so each knob is validated once, by
    its core rule, before any engine exists.
    """

    #: ``"local"`` (one :class:`ServingScheduler`), ``"sharded"``
    #: (:class:`ShardedServingEngine`: ``num_shards`` replicas over one
    #: shared store, round-robin routing) or ``"fleet"``
    #: (:class:`FleetServingEngine`: node-ownership routing, admission
    #: control, elastic replica pool)
    kind: str = "local"
    num_shards: int = 1
    window: int = 8
    max_batch_requests: int = 16
    max_delay_ms: float = 2.0
    enable_reuse: bool = True
    enable_pipeline: bool = True
    fixed_s_per: Optional[int] = None
    # -- fleet-only knobs (consulted by kind "fleet") -----------------------
    #: replicas active at start (and the autoscaler's floor)
    min_replicas: int = 1
    #: autoscaler ceiling; ``None`` means all ``num_shards`` replicas
    max_replicas: Optional[int] = None
    #: per-replica queue depth at which new requests are shed
    admission_limit: int = 32
    #: p99 latency SLO (milliseconds, simulated) driving the autoscaler
    slo_p99_ms: float = 50.0
    #: node-ownership strategy of the fleet partition plan
    partition_mode: str = "edges"
    #: trace replayed by ``Engine.serve()`` when none is passed explicitly
    trace: TraceSpec = field(default_factory=TraceSpec)

    def __post_init__(self) -> None:
        if isinstance(self.trace, Mapping):
            object.__setattr__(self, "trace", TraceSpec.from_dict(self.trace))
        check_choice("serving kind", self.kind, SERVING_KINDS, "kinds")
        self.to_serving_config()
        self.to_fleet_config()
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

    def to_serving_config(self) -> "ServingConfig":  # noqa: F821 - forward ref
        """Materialize the scheduler-level :class:`ServingConfig`."""
        from repro.serving.scheduler import ServingConfig

        return ServingConfig(
            window=self.window,
            max_batch_requests=self.max_batch_requests,
            max_delay_ms=self.max_delay_ms,
            enable_reuse=self.enable_reuse,
            enable_pipeline=self.enable_pipeline,
            fixed_s_per=self.fixed_s_per,
        )

    def to_fleet_config(self) -> "FleetConfig":  # noqa: F821 - forward ref
        """Materialize the engine-level :class:`FleetConfig`."""
        from repro.distributed.fleet import FleetConfig

        return FleetConfig(
            num_shards=self.num_shards,
            min_replicas=self.min_replicas,
            max_replicas=self.max_replicas,
            admission_limit=self.admission_limit,
            slo_p99_ms=self.slo_p99_ms,
            partition_mode=self.partition_mode,
        )


@dataclass(frozen=True)
class AnalysisSpec(_SpecBase):
    """Sanitizer section of a run: which checks gate it, and how hard.

    With ``enabled`` the engine replays the finished run through the
    execution checkers (happens-before races, collective lint, memory
    watermarks) plus the static spec lint, surfaces violations in
    ``RunReport.extras["analysis"]`` and as Chrome-trace instant events,
    and — with ``fail_on_violation`` — fails the run on any
    error-severity finding.  ``python -m repro check`` runs the static
    family alone, no engine required.
    """

    enabled: bool = False
    #: check selection from ``repro.analysis.CHECK_REGISTRY``; empty = all
    checks: Tuple[str, ...] = ()
    #: raise :class:`repro.analysis.AnalysisError` after export when the
    #: sanitizer found error-severity violations
    fail_on_violation: bool = True

    def __post_init__(self) -> None:
        from repro.analysis import resolve_checks

        if not isinstance(self.checks, tuple):
            object.__setattr__(self, "checks", tuple(self.checks))
        resolve_checks(self.checks)  # rejects unknown names with the catalog


@dataclass(frozen=True)
class RunSpec(_SpecBase):
    """One declarative, serializable description of an executable run."""

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
    optimizer: str = "adam"
    seed: int = 0
    hidden_dim: Optional[int] = None
    #: workload-extrapolation factor; ``None`` derives it from the dataset
    cost_scale: Optional[float] = None
    #: :class:`PiPADConfig` overrides (only consulted by PiPAD-family methods)
    pipad: Dict[str, Any] = field(default_factory=dict)
    device: DeviceSpec = field(default_factory=DeviceSpec)
    #: data pipeline: stage composition, prefetch depth, pinning
    data: DataSpec = field(default_factory=DataSpec)
    #: multi-tier feature cache: tiers, budgets, eviction policy
    memory: MemorySpec = field(default_factory=MemorySpec)
    #: optional online-serving phase; ``None`` means a training-only run
    serving: Optional[ServingSpec] = None
    #: observability: exporters + callback sinks (enabled by default)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)
    #: sanitizer: check selection + failure policy (off by default)
    analysis: AnalysisSpec = field(default_factory=AnalysisSpec)

    def __post_init__(self) -> None:
        from repro.baselines import _registry
        from repro.graph.datasets import DATASET_ORDER
        from repro.nn import MODEL_REGISTRY

        # Accept plain mappings for the nested sections (the ergonomic literal
        # form ``RunSpec(device={"kind": "group", ...})``).
        if isinstance(self.device, Mapping):
            object.__setattr__(self, "device", DeviceSpec.from_dict(self.device))
        if isinstance(self.data, Mapping):
            object.__setattr__(self, "data", DataSpec.from_dict(self.data))
        if isinstance(self.memory, Mapping):
            object.__setattr__(self, "memory", MemorySpec.from_dict(self.memory))
        if isinstance(self.serving, Mapping):
            object.__setattr__(self, "serving", ServingSpec.from_dict(self.serving))
        if isinstance(self.telemetry, Mapping):
            object.__setattr__(
                self, "telemetry", TelemetrySpec.from_dict(self.telemetry)
            )
        if isinstance(self.analysis, Mapping):
            object.__setattr__(
                self, "analysis", AnalysisSpec.from_dict(self.analysis)
            )

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
        check_positive("frame_size", self.frame_size)
        check_positive("epochs", self.epochs)
        check_positive("lr", self.lr)
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}; valid: adam, sgd")
        unknown = set(self.pipad) - set(PIPAD_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown PiPADConfig override(s) {sorted(unknown)}; "
                f"valid keys: {_known_choices(PIPAD_FIELDS)}"
            )
        if self.device.kind != "single" and method_key != "pipad":
            raise ValueError(
                f"device kind {self.device.kind!r} is only supported by method "
                f"'pipad' (DistributedTrainer/PipelineTrainer), got method "
                f"{self.method!r}"
            )
        # Frozen dataclass: normalize names via object.__setattr__ so the
        # engine and registries can rely on canonical keys downstream.
        object.__setattr__(self, "dataset", dataset_key)
        object.__setattr__(self, "model", model_key)
        object.__setattr__(self, "method", method_key)

    # ------------------------------------------------------------------ resolution
    def pipad_config(self) -> PiPADConfig:
        """Materialize the PiPAD runtime config with this spec's overrides."""
        return PiPADConfig(**self.pipad)

    def trainer_config(self) -> "TrainerConfig":  # noqa: F821 - forward ref
        """Materialize the shared :class:`TrainerConfig` for this spec."""
        from repro.baselines import TrainerConfig

        return TrainerConfig(
            model=self.model,
            hidden_dim=self.hidden_dim,
            frame_size=self.frame_size,
            epochs=self.epochs,
            lr=self.lr,
            optimizer=self.optimizer,
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


#: (owner class name, field name) -> nested spec class, for ``from_dict``
_NESTED_SPECS: Dict[Tuple[str, str], type] = {
    ("RunSpec", "device"): DeviceSpec,
    ("RunSpec", "data"): DataSpec,
    ("RunSpec", "memory"): MemorySpec,
    ("RunSpec", "serving"): ServingSpec,
    ("RunSpec", "telemetry"): TelemetrySpec,
    ("RunSpec", "analysis"): AnalysisSpec,
    ("ServingSpec", "trace"): TraceSpec,
}

#: fields that serialize as JSON lists but are tuples in memory
_TUPLE_FIELDS: Dict[str, Tuple[str, ...]] = {
    "TelemetrySpec": ("callbacks",),
    "AnalysisSpec": ("checks",),
}
