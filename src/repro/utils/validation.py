"""Small argument-validation helpers used across the package.

These raise early with precise messages instead of letting NumPy produce a
cryptic broadcast error three layers down.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

import numpy as np


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_non_negative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_int(name: str, value: Any) -> None:
    """Raise ``ValueError`` unless ``value`` is an ``int`` (``bool`` excluded)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")


def check_choice(name: str, value: Any, valid: Iterable[str], plural: str) -> None:
    """Raise ``ValueError`` listing the valid ``plural`` unless ``value`` is one."""
    if value not in valid:
        raise ValueError(
            f"unknown {name} {value!r}; valid {plural}: {', '.join(sorted(valid))}"
        )


def check_in_range(
    name: str, value: float, low: float, high: float, *, inclusive: bool = True
) -> None:
    """Raise ``ValueError`` unless ``low <= value <= high`` (or strict)."""
    ok = (low <= value <= high) if inclusive else (low < value < high)
    if not ok:
        op = "<=" if inclusive else "<"
        raise ValueError(f"{name} must satisfy {low} {op} {name} {op} {high}, got {value!r}")


def check_array(
    name: str,
    value: Any,
    *,
    ndim: Optional[int] = None,
    dtype_kind: Optional[str] = None,
) -> np.ndarray:
    """Coerce ``value`` to ``np.ndarray`` and validate its structure.

    Parameters
    ----------
    ndim:
        Required number of dimensions, if any.
    dtype_kind:
        Required NumPy dtype kind string (e.g. ``"f"``, ``"i"``, ``"iu"``
        meaning "any of these kinds").
    """
    arr = np.asarray(value)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have ndim={ndim}, got ndim={arr.ndim}")
    if dtype_kind is not None and arr.dtype.kind not in dtype_kind:
        raise ValueError(
            f"{name} must have dtype kind in {dtype_kind!r}, got {arr.dtype} (kind {arr.dtype.kind!r})"
        )
    return arr
