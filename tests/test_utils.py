"""Tests for repro.utils (rng, validation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import as_rng, check_array, check_in_range, check_non_negative, check_positive


class TestRng:
    def test_as_rng_from_int_is_deterministic(self):
        assert as_rng(42).integers(0, 100) == as_rng(42).integers(0, 100)

    def test_as_rng_passthrough_generator(self):
        gen = np.random.default_rng(1)
        assert as_rng(gen) is gen

    def test_as_rng_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestValidation:
    def test_check_positive_accepts(self):
        check_positive("x", 1)

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_check_non_negative(self):
        check_non_negative("x", 0)
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_check_in_range_inclusive(self):
        check_in_range("x", 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            check_in_range("x", 1.0, 0.0, 1.0, inclusive=False)

    def test_check_array_ndim(self):
        arr = check_array("x", [[1.0, 2.0]], ndim=2)
        assert arr.shape == (1, 2)
        with pytest.raises(ValueError):
            check_array("x", [1.0], ndim=2)

    def test_check_array_dtype_kind(self):
        check_array("x", np.zeros(3, dtype=np.float32), dtype_kind="f")
        with pytest.raises(ValueError):
            check_array("x", np.zeros(3, dtype=np.int64), dtype_kind="f")

