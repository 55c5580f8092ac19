"""The unified metrics registry: counters, gauges and histograms.

One :class:`MetricsRegistry` gathers every quantitative surface of a run —
the serving p50/p99/hit-rate summary, the trainer's timeline breakdown,
``DeviceGroup.collective_seconds``, pipeline bubble accounting, reuse-cache
statistics and the kernel-category totals — behind a single
``snapshot() -> dict``, so benchmarks, the run report and CI artifacts all
read one flat namespace instead of five bespoke dictionaries.

Instruments follow the Prometheus naming conventions loosely: dotted
lower-case names, counters for monotonically growing totals, gauges for
point-in-time values, histograms for distributions.  Registration is
get-or-create: asking for an existing name with the *same* instrument type
returns the existing instrument; re-registering a name as a *different*
type raises (the double-register edge the registry tests pin down).
Histogram aggregates are NaN on an empty run — the repo-wide
"an absent measurement must not read as a perfect one" convention from the
serving metrics.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

#: percentiles a histogram snapshot exports (suffix, q)
HISTOGRAM_PERCENTILES: Tuple[Tuple[str, float], ...] = (("p50", 50.0), ("p99", 99.0))


class Counter:
    """Monotonically non-decreasing total."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self._value += amount


class Gauge:
    """Point-in-time value that can move in either direction."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = float("nan")

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def add(self, amount: float) -> None:
        base = 0.0 if np.isnan(self._value) else self._value
        self._value = base + amount


class Histogram:
    """Distribution of observations; percentiles are NaN when empty."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._observations: List[float] = []

    def observe(self, value: float) -> None:
        self._observations.append(float(value))

    @property
    def count(self) -> int:
        return len(self._observations)

    @property
    def total(self) -> float:
        return float(sum(self._observations))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """q-th percentile of the observations; NaN on an empty histogram."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._observations:
            return float("nan")
        return float(np.percentile(np.asarray(self._observations, dtype=np.float64), q))

    def snapshot(self) -> Dict[str, float]:
        out = {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
        }
        for suffix, q in HISTOGRAM_PERCENTILES:
            out[suffix] = self.percentile(q)
        return out


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name-spaced home of every instrument one run produces."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    # ------------------------------------------------------------------ registration
    def _get_or_create(self, name: str, cls: type) -> Instrument:
        if not name:
            raise ValueError("instrument name must be non-empty")
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} is already registered as "
                    f"{type(existing).__name__}, cannot re-register as {cls.__name__}"
                )
            return existing
        instrument = cls(name)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)  # type: ignore[return-value]

    # ------------------------------------------------------------------ bulk ingestion
    def set_gauges(self, values: Mapping[str, float], *, prefix: str = "") -> None:
        """Register/overwrite one gauge per mapping entry (flat unification
        path: breakdowns, collective totals, reuse stats, serving summaries)."""
        for key, value in values.items():
            name = f"{prefix}{key}" if prefix else key
            self.gauge(name).set(float(value))

    # ------------------------------------------------------------------ queries
    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> Dict[str, float]:
        """One flat, sorted ``name -> value`` view of every instrument.

        Counters and gauges appear under their own name; histograms expand
        to ``name.count`` / ``name.sum`` / ``name.mean`` / ``name.p50`` /
        ``name.p99``.  An empty registry snapshots to an empty dict.
        """
        out: Dict[str, float] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                for key, value in instrument.snapshot().items():
                    out[f"{name}.{key}"] = value
            else:
                out[name] = instrument.value
        return dict(sorted(out.items()))

    def reset(self) -> None:
        self._instruments.clear()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HISTOGRAM_PERCENTILES",
    "MetricsRegistry",
]
