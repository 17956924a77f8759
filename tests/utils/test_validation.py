"""Tests for repro.utils.validation."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive_values(self):
        assert check_positive("x", 3.5) == 3.5
        assert check_positive("x", 1) == 1

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ConfigurationError, match="x"):
            check_positive("x", bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "3", None, True])
    def test_rejects_non_finite_and_non_numbers(self, bad):
        with pytest.raises(ConfigurationError):
            check_positive("x", bad)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_non_negative("x", -1e-9)


class TestCheckPositiveInt:
    def test_accepts_ints(self):
        assert check_positive_int("n", 5) == 5

    @pytest.mark.parametrize("bad", [0, -2, 1.5, True, "7"])
    def test_rejects_non_positive_ints(self, bad):
        with pytest.raises(ConfigurationError):
            check_positive_int("n", bad)


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, ok):
        assert check_probability("p", ok) == ok

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan])
    def test_rejects_outside(self, bad):
        with pytest.raises(ConfigurationError):
            check_probability("p", bad)


class TestCheckFraction:
    def test_accepts_interior(self):
        assert check_fraction("f", 0.3) == 0.3

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 2.0])
    def test_rejects_boundary_and_outside(self, bad):
        with pytest.raises(ConfigurationError):
            check_fraction("f", bad)
