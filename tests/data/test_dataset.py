"""Tests for repro.data.dataset."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.exceptions import DataError


@pytest.fixture
def dataset(rng):
    return Dataset(rng.normal(size=(30, 4)), rng.integers(0, 2, size=30))


class TestDataset:
    def test_shapes(self, dataset):
        assert dataset.n_samples == 30
        assert dataset.n_features == 4
        assert len(dataset) == 30

    def test_rejects_mismatched_lengths(self, rng):
        with pytest.raises(DataError):
            Dataset(rng.normal(size=(5, 2)), rng.normal(size=4))

    def test_rejects_1d_features(self, rng):
        with pytest.raises(DataError):
            Dataset(rng.normal(size=5), rng.normal(size=5))

    def test_rejects_2d_labels(self, rng):
        with pytest.raises(DataError):
            Dataset(rng.normal(size=(5, 2)), rng.normal(size=(5, 1)))

    def test_subset_selects_and_copies(self, dataset):
        sub = dataset.subset(np.array([0, 2, 4]))
        assert sub.n_samples == 3
        np.testing.assert_array_equal(sub.X[1], dataset.X[2])
        sub.X[0, 0] = 1e9
        assert dataset.X[0, 0] != 1e9

    def test_subset_range_checked(self, dataset):
        with pytest.raises(DataError):
            dataset.subset(np.array([30]))
