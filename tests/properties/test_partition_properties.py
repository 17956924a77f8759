"""Property-based tests for the data partitioners."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data.dataset import Dataset
from repro.data.partition import dirichlet_partition, iid_partition


@st.composite
def datasets_and_parts(draw):
    n = draw(st.integers(min_value=10, max_value=200))
    n_parts = draw(st.integers(min_value=1, max_value=min(10, n)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 4, size=n).astype(np.int64)
    return Dataset(X, y), n_parts, seed


def assert_partition(dataset, parts):
    assert sum(p.n_samples for p in parts) == dataset.n_samples
    # index multiset equality via sorted stacking of rows
    original = np.sort(dataset.X, axis=0)
    combined = np.sort(np.vstack([p.X for p in parts if p.n_samples]), axis=0)
    np.testing.assert_array_equal(original, combined)


@given(datasets_and_parts())
@settings(max_examples=40, deadline=None)
def test_iid_partition_is_exact_partition(case):
    dataset, n_parts, seed = case
    parts = iid_partition(dataset, n_parts, seed=seed)
    assert_partition(dataset, parts)
    sizes = [p.n_samples for p in parts]
    assert max(sizes) - min(sizes) <= 1


@given(datasets_and_parts())
@settings(max_examples=25, deadline=None)
def test_dirichlet_partition_is_exact_partition(case):
    dataset, n_parts, seed = case
    parts = dirichlet_partition(
        dataset, n_parts, concentration=1.0, seed=seed, min_samples=1
    )
    assert_partition(dataset, parts)
