"""Strict-JSON persistence helpers shared by the run-report exporter.

The repo's NaN convention (an absent measurement is ``nan``, never a fake
zero — see :mod:`repro.serving.metrics`) collides with strict JSON, which
has no spelling for non-finite floats.  ``json.dumps`` would emit the
non-standard ``NaN`` literal many consumers reject; converting to ``null``
(as the CLI summary view does) is lossy.  Persistence therefore round-trips
non-finite floats through marker strings — ``"NaN"`` / ``"Infinity"`` /
``"-Infinity"`` — which are valid strict JSON and restore to the exact
float.  These helpers are dependency-free so every layer (baselines,
serving, api) can import them without cycles.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Union

_NONFINITE_MARKERS: Dict[str, float] = {
    "NaN": float("nan"),
    "Infinity": float("inf"),
    "-Infinity": float("-inf"),
}


def sanitize_floats(value: Any) -> Any:
    """Recursively replace non-finite floats with their marker strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, Mapping):
        return {key: sanitize_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_floats(item) for item in value]
    return value


def restore_floats(value: Any) -> Any:
    """Inverse of :func:`sanitize_floats` (markers back to floats)."""
    if isinstance(value, str) and value in _NONFINITE_MARKERS:
        return _NONFINITE_MARKERS[value]
    if isinstance(value, Mapping):
        return {key: restore_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [restore_floats(item) for item in value]
    return value


def restore_float_dict(
    value: Union[Mapping[str, Any], None]
) -> Dict[str, float]:
    """Restore a flat ``str -> float`` mapping (breakdowns, summaries)."""
    if not value:
        return {}
    return {key: float(restore_floats(item)) for key, item in value.items()}


__all__ = [
    "restore_float_dict",
    "restore_floats",
    "sanitize_floats",
]
