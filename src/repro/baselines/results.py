"""Training-result records shared by all trainers."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping

from repro.telemetry.persistence import restore_floats, sanitize_floats


@dataclass
class EpochMetrics:
    """Metrics of one training epoch (simulated time plus numerics)."""

    epoch: int
    simulated_seconds: float
    loss: float
    transfer_seconds: float
    compute_seconds: float
    cpu_seconds: float

    def to_dict(self) -> Dict[str, Any]:
        return sanitize_floats(asdict(self))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EpochMetrics":
        return cls(**restore_floats(dict(data)))


@dataclass
class TrainingResult:
    """End-to-end outcome of a training run on the simulated device.

    ``simulated_seconds`` is the quantity the paper's end-to-end comparisons
    (Fig. 10) are about; ``wall_seconds`` is the real time this Python process
    spent and is only reported for transparency.
    """

    method: str
    model: str
    dataset: str
    epochs: int
    simulated_seconds: float
    wall_seconds: float
    final_loss: float
    epoch_metrics: List[EpochMetrics] = field(default_factory=list)
    breakdown: Dict[str, float] = field(default_factory=dict)
    category_seconds: Dict[str, float] = field(default_factory=dict)
    gpu_utilization: float = 0.0
    sm_utilization: float = 0.0
    memory_requests: float = 0.0
    memory_transactions: float = 0.0
    avg_thread_ratio: float = 1.0
    peak_memory_bytes: int = 0
    kernel_launches: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def per_epoch_seconds(self) -> float:
        return self.simulated_seconds / self.epochs if self.epochs else 0.0

    @property
    def steady_epoch_seconds(self) -> float:
        """Mean simulated seconds of the epochs after the first one.

        The first epoch includes one-off costs (cold reuse caches, PiPAD's
        preparing/profiling epoch); the paper trains 200 epochs, so the
        steady-state per-epoch time is the meaningful comparison quantity for
        short benchmark runs.
        """
        later = [m.simulated_seconds for m in self.epoch_metrics[1:]]
        if later:
            return float(sum(later) / len(later))
        return self.per_epoch_seconds

    def speedup_over(self, other: "TrainingResult") -> float:
        """``other`` time divided by this run's time (per-epoch, steady state)."""
        if self.simulated_seconds == 0:
            return float("inf")
        return other.simulated_seconds / self.simulated_seconds

    def loss_curve(self) -> List[float]:
        return [m.loss for m in self.epoch_metrics]

    # ------------------------------------------------------------------ persistence
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view; non-finite floats become marker strings."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "epoch_metrics"
        }
        out = sanitize_floats(out)
        out["epoch_metrics"] = [m.to_dict() for m in self.epoch_metrics]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrainingResult":
        payload = dict(data)
        epoch_metrics = [
            EpochMetrics.from_dict(m) for m in payload.pop("epoch_metrics", ())
        ]
        return cls(epoch_metrics=epoch_metrics, **restore_floats(payload))
