"""Parameter initializers."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_rng


def zeros(*shape: int) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(*shape: int) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)


def xavier_uniform(shape, seed: SeedLike = None) -> np.ndarray:
    """Glorot/Xavier uniform initialization for 2-D weights."""
    rng = as_rng(seed)
    fan_in, fan_out = shape[0], shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)
