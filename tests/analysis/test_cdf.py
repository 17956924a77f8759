"""Tests for repro.analysis.cdf."""

import numpy as np
import pytest

from repro.analysis.cdf import fraction_below
from repro.exceptions import DataError


class TestFractionBelow:
    def test_basic(self):
        values = np.array([0.1, 0.2, 0.3, 0.4])
        assert fraction_below(values, 0.25) == 0.5
        assert fraction_below(values, 1.0) == 1.0
        assert fraction_below(values, 0.0) == 0.0

    def test_threshold_is_inclusive(self):
        assert fraction_below(np.array([1.0, 2.0]), 1.0) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            fraction_below(np.array([]), 0.5)
