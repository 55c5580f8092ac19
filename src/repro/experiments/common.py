"""Shared plumbing for the experiment harness.

Every experiment module exposes ``run(config) -> dict`` returning the rows of
the corresponding paper table/figure and ``format_result(rows) -> str``
rendering them the way the paper reports them.  :class:`ExperimentConfig`
scales the sweep: the defaults finish in seconds (suitable for CI and the
claims table in :mod:`repro.experiments.claims`); ``full()`` mirrors the
paper's full grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

from repro.baselines import METHOD_ORDER, _registry
from repro.baselines.results import TrainingResult
from repro.graph.datasets import DATASET_ORDER, load_dataset
from repro.nn import MODEL_ORDER, MODEL_REGISTRY


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep parameters shared by all experiments."""

    datasets: Tuple[str, ...] = ("flickr", "hepth", "covid19_england")
    models: Tuple[str, ...] = ("evolvegcn", "tgcn")
    methods: Tuple[str, ...] = tuple(METHOD_ORDER)
    num_snapshots: int = 12
    frame_size: int = 8
    epochs: int = 3
    seed: int = 0
    preparing_epochs: int = 1

    def __post_init__(self) -> None:
        # Fail fast with the valid choices: a typo'd name must not surface as
        # a KeyError hours into a sweep.
        for kind, names, valid, separator in (
            ("dataset", self.datasets, DATASET_ORDER, ("-", "_")),
            ("model", self.models, MODEL_REGISTRY, ("-", "_")),
            ("method", self.methods, _registry(), ("_", "-")),
        ):
            unknown = [n for n in names if n.lower().replace(*separator) not in valid]
            if unknown:
                raise ValueError(
                    f"unknown {kind}(s) {unknown}; valid {kind}s: {sorted(valid)}"
                )

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """A minimal sweep for smoke tests: one small dataset, one model."""
        return cls(
            datasets=("covid19_england",),
            models=("tgcn",),
            num_snapshots=10,
            frame_size=6,
            epochs=2,
        )

    @classmethod
    def full(cls) -> "ExperimentConfig":
        """The paper's full grid (7 datasets × 3 models × 5 methods)."""
        return cls(
            datasets=tuple(DATASET_ORDER),
            models=tuple(MODEL_ORDER),
            num_snapshots=24,
            frame_size=16,
            epochs=3,
        )

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


def load_experiment_graph(name: str, config: ExperimentConfig):
    """Load a dataset analogue sized for the experiment sweep."""
    return load_dataset(name, seed=config.seed, num_snapshots=config.num_snapshots)


def method_spec(
    method: str, model: str, config: ExperimentConfig, *, dataset: str
) -> "RunSpec":  # noqa: F821 - forward ref
    """The :class:`~repro.api.spec.RunSpec` one sweep combination resolves to."""
    from repro.api.spec import RunSpec
    from repro.core.config import PiPADConfig

    return RunSpec(
        dataset=dataset,
        model=model,
        method=method,
        num_snapshots=config.num_snapshots,
        frame_size=config.frame_size,
        epochs=config.epochs,
        seed=config.seed,
        pipad=PiPADConfig(preparing_epochs=config.preparing_epochs),
    )


def run_method(
    method: str,
    graph,
    model: str,
    config: ExperimentConfig,
) -> TrainingResult:
    """Train one (method, model, dataset) combination and return its result.

    The combination is expressed as a :class:`~repro.api.spec.RunSpec` and
    executed through the unified :class:`~repro.api.engine.Engine`, sharing
    the already-loaded ``graph`` across the sweep's methods.
    """
    from repro.api.engine import Engine

    dataset = str(graph.metadata.get("dataset", graph.name))
    spec = method_spec(method, model, config, dataset=dataset)
    return Engine.from_spec(spec, graph=graph).train()


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], *, float_fmt: str = "{:.3f}"
) -> str:
    """Render a fixed-width text table."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return float_fmt.format(value)
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), max((len(r[i]) for r in str_rows), default=0))
        for i in range(len(headers))
    ]
    lines = ["  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)
