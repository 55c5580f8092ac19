"""Shared utilities: validation helpers and RNG handling."""

from repro.utils.rng import as_rng
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_in_range,
    check_array,
)

__all__ = [
    "as_rng",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_array",
]
