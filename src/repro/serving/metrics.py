"""Serving-side metrics: request latency, throughput and cache efficiency.

Records are kept per request so tail latency (p99) is a first-class
quantity, the way online inference systems are actually judged.  The
aggregate :class:`ServingReport` carries the run's summary, and
``speedup_over`` compares two runs of one trace.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping

import numpy as np

from repro.telemetry.persistence import restore_floats, sanitize_floats


@dataclass(frozen=True)
class RequestRecord:
    """Completion record of one request."""

    request_id: int
    batch_id: int
    arrival_time: float
    completion_time: float
    num_nodes: int

    @property
    def latency(self) -> float:
        return self.completion_time - self.arrival_time


@dataclass(frozen=True)
class BatchRecord:
    """Completion record of one micro-batch."""

    batch_id: int
    size: int
    s_per: int
    formed_time: float
    completion_time: float
    transfer_bytes: float
    cache_hits: int
    cache_misses: int


class ServingMetrics:
    """Accumulates per-request and per-batch records during a serving run."""

    def __init__(self) -> None:
        self.requests: List[RequestRecord] = []
        self.batches: List[BatchRecord] = []
        self.deltas_ingested = 0
        #: rows *invalidated* by deltas (patched only when reuse is enabled —
        #: the session reports actual patches separately as ``rows_patched``)
        self.rows_touched = 0

    # -- recording -----------------------------------------------------------
    def record_request(self, record: RequestRecord) -> None:
        self.requests.append(record)

    def record_batch(self, record: BatchRecord) -> None:
        self.batches.append(record)

    def record_delta(self, touched_rows: int) -> None:
        self.deltas_ingested += 1
        self.rows_touched += touched_rows

    # -- aggregates ----------------------------------------------------------
    @property
    def num_requests(self) -> int:
        return len(self.requests)

    def latencies(self) -> np.ndarray:
        return np.array([r.latency for r in self.requests], dtype=np.float64)

    def latency_percentile(self, q: float) -> float:
        """Latency percentile in seconds; NaN when no request has completed.

        Returning 0.0 for an empty window would silently read as "perfect
        latency" in benchmark comparisons; NaN makes a windowless aggregate
        impossible to mistake for a measurement (any comparison with it is
        False and it survives into formatted output as ``nan``).
        """
        lat = self.latencies()
        return float(np.percentile(lat, q)) if len(lat) else float("nan")

    @property
    def p50_latency(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def mean_latency(self) -> float:
        """Mean latency in seconds; NaN when no request has completed (see
        :meth:`latency_percentile`)."""
        lat = self.latencies()
        return float(lat.mean()) if len(lat) else float("nan")

    @property
    def cache_hit_rate(self) -> float:
        hits = sum(b.cache_hits for b in self.batches)
        total = hits + sum(b.cache_misses for b in self.batches)
        return hits / total if total else 0.0

    def throughput_rps(self) -> float:
        """Completed requests per simulated second over the active span."""
        if not self.requests:
            return 0.0
        start = min(r.arrival_time for r in self.requests)
        end = max(r.completion_time for r in self.requests)
        span = end - start
        return len(self.requests) / span if span > 0 else float("inf")

    def mean_batch_size(self) -> float:
        return float(np.mean([b.size for b in self.batches])) if self.batches else 0.0

    def rows_per_delta(self) -> float:
        """Mean invalidated rows per ingested delta; NaN when no delta has
        arrived (an empty ingestion window must not read as a zero-cost one —
        same convention as :meth:`latency_percentile`)."""
        if not self.deltas_ingested:
            return float("nan")
        return self.rows_touched / self.deltas_ingested

    def summary(self) -> Dict[str, float]:
        return {
            "requests": float(self.num_requests),
            "batches": float(len(self.batches)),
            "deltas": float(self.deltas_ingested),
            "rows_touched": float(self.rows_touched),
            "rows_per_delta": self.rows_per_delta(),
            "mean_batch_size": self.mean_batch_size(),
            "p50_latency_ms": self.p50_latency * 1e3,
            "p99_latency_ms": self.p99_latency * 1e3,
            "mean_latency_ms": self.mean_latency * 1e3,
            "throughput_rps": self.throughput_rps(),
            "cache_hit_rate": self.cache_hit_rate,
        }

    # -- persistence ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view; non-finite floats become marker strings."""
        return {
            "requests": [sanitize_floats(asdict(r)) for r in self.requests],
            "batches": [sanitize_floats(asdict(b)) for b in self.batches],
            "deltas_ingested": self.deltas_ingested,
            "rows_touched": self.rows_touched,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServingMetrics":
        metrics = cls()
        for item in data.get("requests", ()):
            metrics.record_request(RequestRecord(**restore_floats(dict(item))))
        for item in data.get("batches", ()):
            metrics.record_batch(BatchRecord(**restore_floats(dict(item))))
        metrics.deltas_ingested = int(data.get("deltas_ingested", 0))
        metrics.rows_touched = int(data.get("rows_touched", 0))
        return metrics


@dataclass
class ServingReport:
    """End-to-end outcome of a serving run on the simulated device."""

    engine: str
    model: str
    dataset: str
    simulated_seconds: float
    wall_seconds: float
    metrics: ServingMetrics
    breakdown: Dict[str, float] = field(default_factory=dict)
    reuse_stats: Dict[str, float] = field(default_factory=dict)
    gpu_utilization: float = 0.0
    peak_memory_bytes: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def p50_latency(self) -> float:
        return self.metrics.p50_latency

    @property
    def p99_latency(self) -> float:
        return self.metrics.p99_latency

    @property
    def throughput_rps(self) -> float:
        return self.metrics.throughput_rps()

    @property
    def cache_hit_rate(self) -> float:
        return self.metrics.cache_hit_rate

    def speedup_over(self, other: "ServingReport") -> float:
        """Mean-latency advantage over another run of the same trace.

        NaN when either run completed zero requests — an empty window must
        not read as infinitely fast (see :meth:`ServingMetrics.
        latency_percentile`).
        """
        mine = self.metrics.mean_latency
        theirs = other.metrics.mean_latency
        if math.isnan(mine) or math.isnan(theirs):
            return float("nan")
        return theirs / mine if mine > 0 else float("inf")

    # -- persistence ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view; non-finite floats become marker strings."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "metrics"
        }
        out = sanitize_floats(out)
        out["metrics"] = self.metrics.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServingReport":
        payload = dict(data)
        metrics = ServingMetrics.from_dict(payload.pop("metrics", {}))
        return cls(metrics=metrics, **restore_floats(payload))

    def format(self) -> str:
        """Human-readable one-run summary (examples and benchmark logs)."""
        s = self.metrics.summary()
        lines = [
            f"engine={self.engine} model={self.model} dataset={self.dataset}",
            (
                f"  requests={s['requests']:.0f} batches={s['batches']:.0f} "
                f"deltas={s['deltas']:.0f} mean_batch={s['mean_batch_size']:.1f}"
            ),
            (
                f"  delta ingestion: rows_touched={s['rows_touched']:.0f} "
                f"rows/delta={s['rows_per_delta']:.1f}"
            ),
            (
                f"  latency p50={s['p50_latency_ms']:.3f} ms  "
                f"p99={s['p99_latency_ms']:.3f} ms  mean={s['mean_latency_ms']:.3f} ms"
            ),
            (
                f"  throughput={s['throughput_rps']:.0f} req/s  "
                f"cache_hit_rate={s['cache_hit_rate']:.1%}  "
                f"gpu_util={self.gpu_utilization:.1%}"
            ),
        ]
        return "\n".join(lines)
