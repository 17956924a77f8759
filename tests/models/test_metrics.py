"""Tests for repro.models.metrics."""

import numpy as np
import pytest

from repro.exceptions import DataError
from repro.models.metrics import accuracy_score


class TestAccuracy:
    def test_perfect(self):
        y = np.array([1, 0, 1])
        assert accuracy_score(y, y) == 1.0

    def test_half(self):
        assert accuracy_score(np.array([1, 0]), np.array([1, 1])) == 0.5

    def test_signed_labels(self):
        assert accuracy_score(np.array([-1.0, 1.0]), np.array([-1.0, -1.0])) == 0.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            accuracy_score(np.array([1, 0]), np.array([1]))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            accuracy_score(np.array([]), np.array([]))
