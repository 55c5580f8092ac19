"""Sample statistics shared by run.py, worker.py and compare.py."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: candidate tail percentiles in tenths of a percent, highest first (integer
#: arithmetic keeps 99.9 % exact)
_TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)

#: samples a reported percentile needs beyond it
MIN_BEYOND = 10


def tail_percentile(samples: int) -> Optional[float]:
    """Highest candidate percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    for permille in _TAIL_PERMILLE:
        if samples * (1000 - permille) >= MIN_BEYOND * 1000:
            return permille / 10.0
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    base: Sequence[float], new: Sequence[float], bound: float, better: str
) -> str:
    """Judge the ``new`` runs of one metric against the ``base`` runs.

    ``better`` when every new run reads better than every base run;
    ``unresolved`` when either side's spread exceeds the bound; ``worse``
    when the new median is worse than the base median by more than the
    bound; ``unchanged`` otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    if max(sign * v for v in new) < min(sign * v for v in base):
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    base_median = statistics.median(base)
    change = sign * (statistics.median(new) - base_median) / abs(base_median)
    return "worse" if change > bound else "unchanged"
