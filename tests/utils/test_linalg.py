"""Tests for repro.utils.linalg."""

import numpy as np
import pytest

from repro.exceptions import WeightMatrixError
from repro.utils.linalg import (
    is_doubly_stochastic,
    is_nonnegative,
    is_symmetric,
    second_largest_eigenvalue,
    smallest_eigenvalue,
    sorted_eigenvalues,
)


class TestPredicates:
    def test_symmetric_detection(self):
        assert is_symmetric(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not is_symmetric(np.array([[1.0, 2.0], [3.0, 1.0]]))

    def test_symmetric_rejects_non_square(self):
        assert not is_symmetric(np.ones((2, 3)))
        assert not is_symmetric(np.ones(4))

    def test_nonnegative(self):
        assert is_nonnegative(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert not is_nonnegative(np.array([[0.0, -1e-3]]))

    def test_doubly_stochastic_accepts_valid(self):
        w = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert is_doubly_stochastic(w)
        assert is_doubly_stochastic(np.eye(4))

    def test_doubly_stochastic_rejects_bad_rows(self):
        assert not is_doubly_stochastic(np.array([[0.9, 0.0], [0.0, 1.0]]))

    def test_doubly_stochastic_rejects_negative_entries(self):
        w = np.array([[1.2, -0.2], [-0.2, 1.2]])
        assert not is_doubly_stochastic(w)

    def test_doubly_stochastic_rejects_non_square(self):
        assert not is_doubly_stochastic(np.full((2, 3), 1 / 3))


class TestSpectrum:
    def test_sorted_descending(self):
        w = np.diag([3.0, -1.0, 2.0])
        np.testing.assert_allclose(sorted_eigenvalues(w), [3.0, 2.0, -1.0])

    def test_sorted_rejects_asymmetric(self):
        with pytest.raises(WeightMatrixError):
            sorted_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_second_largest_skips_unit_eigenvalue(self):
        # 2x2 doubly stochastic: eigenvalues are 1 and 2a-1.
        a = 0.7
        w = np.array([[a, 1 - a], [1 - a, a]])
        assert second_largest_eigenvalue(w) == pytest.approx(2 * a - 1)

    def test_second_largest_skips_repeated_ones(self):
        # Block diagonal of two K2-averaging blocks: eigenvalue 1 twice.
        block = np.full((2, 2), 0.5)
        w = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
        assert second_largest_eigenvalue(w) == pytest.approx(0.0)

    def test_second_largest_raises_for_identity_like(self):
        with pytest.raises(WeightMatrixError):
            second_largest_eigenvalue(np.eye(3))

    def test_smallest_eigenvalue(self):
        w = np.diag([1.0, -0.25, 0.5])
        assert smallest_eigenvalue(w) == pytest.approx(-0.25)
