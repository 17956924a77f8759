"""Tests for repro.data.partition."""

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.partition import dirichlet_partition, iid_partition
from repro.exceptions import DataError


@pytest.fixture
def labeled_dataset(rng):
    n = 200
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 5, size=n).astype(np.int64)
    return Dataset(X, y)


def assert_is_partition(dataset, parts):
    """Every sample appears in exactly one shard."""
    total = sum(p.n_samples for p in parts)
    assert total == dataset.n_samples
    seen = np.vstack([p.X for p in parts])
    assert {tuple(r) for r in seen} == {tuple(r) for r in dataset.X}


class TestIIDPartition:
    def test_is_a_partition(self, labeled_dataset):
        parts = iid_partition(labeled_dataset, 7, seed=0)
        assert_is_partition(labeled_dataset, parts)

    def test_near_equal_sizes(self, labeled_dataset):
        parts = iid_partition(labeled_dataset, 7, seed=0)
        sizes = [p.n_samples for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self, labeled_dataset):
        a = iid_partition(labeled_dataset, 4, seed=3)
        b = iid_partition(labeled_dataset, 4, seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.X, y.X)

    def test_too_many_parts_rejected(self, labeled_dataset):
        with pytest.raises(DataError):
            iid_partition(labeled_dataset, 201, seed=0)

    def test_single_part_is_whole_dataset(self, labeled_dataset):
        (part,) = iid_partition(labeled_dataset, 1, seed=0)
        assert part.n_samples == labeled_dataset.n_samples


class TestDirichletPartition:
    def test_is_a_partition(self, labeled_dataset):
        parts = dirichlet_partition(labeled_dataset, 5, concentration=1.0, seed=0)
        assert_is_partition(labeled_dataset, parts)

    def test_low_concentration_is_more_skewed(self, labeled_dataset):
        def label_skew(parts):
            # mean over shards of (max class share within the shard)
            skews = []
            for p in parts:
                counts = np.bincount(p.y.astype(int), minlength=5)
                skews.append(counts.max() / max(counts.sum(), 1))
            return np.mean(skews)

        skewed = dirichlet_partition(labeled_dataset, 5, concentration=0.05, seed=1)
        uniform = dirichlet_partition(labeled_dataset, 5, concentration=100.0, seed=1)
        assert label_skew(skewed) > label_skew(uniform)

    def test_min_samples_respected(self, labeled_dataset):
        parts = dirichlet_partition(
            labeled_dataset, 4, concentration=0.3, seed=2, min_samples=5
        )
        assert all(p.n_samples >= 5 for p in parts)

    def test_impossible_min_samples_rejected(self, labeled_dataset):
        with pytest.raises(DataError):
            dirichlet_partition(labeled_dataset, 10, seed=0, min_samples=50)
