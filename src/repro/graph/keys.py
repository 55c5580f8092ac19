"""Sort-based set algebra over 1-D integer edge keys and node ids.

PiPAD keeps every snapshot's edges as sorted ``int64`` keys
``row * n_cols + col`` (§4.1), so overlap extraction, snapshot evolution,
delta application and the offline speedup analysis are all set operations
over such arrays.  NumPy 2.x routes ``np.unique`` — and with it
``np.union1d`` and the non-``assume_unique`` forms of ``np.intersect1d`` and
``np.setdiff1d`` — through a hash table, which on a few thousand ``int64``
keys is an order of magnitude slower than one sort plus a
neighbour-inequality mask.  The functions here only sort (the
``assume_unique=True`` forms of ``np.intersect1d``/``np.setdiff1d`` never
call ``np.unique``).

Contract: each function returns exactly the array the NumPy call it
replaces returns — sorted ascending, duplicate-free, same dtype.
"""

from __future__ import annotations

import numpy as np


def unique(values) -> np.ndarray:
    """Sorted distinct values of ``values`` (``np.unique``)."""
    ordered = np.sort(values, axis=None)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def union(a, b) -> np.ndarray:
    """Sorted values in ``a`` or ``b`` (``np.union1d``)."""
    return unique(np.concatenate((a, b), axis=None))


def intersect(a, b) -> np.ndarray:
    """Sorted values in both ``a`` and ``b`` (``np.intersect1d``)."""
    return np.intersect1d(unique(a), unique(b), assume_unique=True)


def difference(a, b) -> np.ndarray:
    """Sorted values in ``a`` but not in ``b`` (``np.setdiff1d``)."""
    return np.setdiff1d(unique(a), unique(b), assume_unique=True)
