"""Top-k by selection ≡ top-k by stable sort, and ``PayloadBatch.take``.

``TopKCompressor.compress_batch`` finds each row's k-th key with
``np.partition`` and ranks only the ties it must; :func:`argsort_top_k` is
the batched stable-``argsort`` kernel it replaced, kept here as the oracle
(docs/PERFORMANCE.md identity 21). Index columns, value columns (NaNs
compared as NaNs) and counts must be equal, padding included, on ties,
all-zero rows, NaN, ±inf, ±0, every ``k >= d`` and batches of 0 or 1 rows.
Tier-1 draws 50 examples; ``make differential`` draws 400.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import TopKCompressor, UniformQuantizer
from repro.compression.base import PayloadBatch


def argsort_top_k(currents: np.ndarray, references: np.ndarray, k: int):
    """The batched stable-argsort top-k: ``(indices, values, n_sent)``."""
    magnitudes = np.abs(currents - references)
    ranked = np.argsort(-magnitudes, kind="stable")[:, :k]
    drifted = np.take_along_axis(magnitudes, ranked, axis=1) > 0.0
    n_params = currents.shape[1]
    indices = np.sort(np.where(drifted, ranked, n_params), axis=1)
    indices[indices == n_params] = 0
    return (
        indices,
        np.take_along_axis(currents, indices, axis=1),
        drifted.sum(axis=1),
    )


#: Values that tie, cancel, overflow or are not numbers.
SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, np.nan, np.inf, -np.inf, 1e308, -1e308]


@st.composite
def drift_batches(draw):
    """``(currents, references, k)``: rows of ties, zero drift and specials."""
    n_rows = draw(st.integers(0, 6))
    n_params = draw(st.integers(1, 12))
    k = draw(st.integers(1, 14))
    element = st.one_of(
        st.sampled_from(SPECIAL),
        st.integers(-2, 2).map(float),
        st.floats(allow_nan=True, allow_infinity=True, width=64),
    )
    shape = n_rows * n_params
    currents = np.array(draw(st.lists(element, min_size=shape, max_size=shape)))
    references = np.array(draw(st.lists(element, min_size=shape, max_size=shape)))
    currents = currents.reshape(n_rows, n_params)
    references = references.reshape(n_rows, n_params)
    # Some rows drift nowhere, some only partly.
    same = np.array(draw(st.lists(st.booleans(), min_size=shape, max_size=shape)))
    references = np.where(same.reshape(n_rows, n_params), currents, references)
    if n_rows and draw(st.booleans()):
        references[0] = currents[0]
    return currents, references, k


def _check_equal_to_the_sort(batch_case) -> None:
    currents, references, k = batch_case
    with np.errstate(invalid="ignore", over="ignore"):
        indices, values, n_sent = argsort_top_k(currents, references, k)
        batch = TopKCompressor(k).compress_batch(currents, references)
    assert batch.indices.dtype == indices.dtype
    assert np.array_equal(batch.indices, indices)
    assert np.array_equal(batch.values, values, equal_nan=True)
    assert batch.n_sent.dtype == n_sent.dtype
    assert np.array_equal(batch.n_sent, n_sent)


@settings(max_examples=50, deadline=None)
@given(drift_batches())
def test_selection_equals_the_stable_sort(batch_case):
    _check_equal_to_the_sort(batch_case)


@pytest.mark.differential
@settings(max_examples=400, deadline=None)
@given(drift_batches())
def test_selection_equals_the_stable_sort_wide(batch_case):
    _check_equal_to_the_sort(batch_case)


@pytest.mark.parametrize("k", [1, 3, 5, 6, 40])
def test_more_ties_than_room_keep_the_lowest_indices(k):
    currents = np.array([[1.0, 2.0, 2.0, -2.0, 2.0, 0.0], [0.0] * 6, [np.inf] * 6])
    references = np.zeros_like(currents)
    indices, values, n_sent = argsort_top_k(currents, references, k)
    batch = TopKCompressor(k).compress_batch(currents, references)
    assert np.array_equal(batch.indices, indices)
    assert np.array_equal(batch.values, values)
    assert np.array_equal(batch.n_sent, n_sent)


class TestTake:
    """``batch.take(rows)[r]`` is ``batch[rows[r]]``, for every batch kind."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda c, r: TopKCompressor(k=3).compress_batch(c, r),
            lambda c, r: UniformQuantizer(bits=4).compress_batch(c, r),
            lambda c, r: PayloadBatch.from_mask(c, c != r),
            lambda c, r: PayloadBatch.from_mask(c),
        ],
        ids=["topk", "uniform", "mask", "dense"],
    )
    def test_rows_are_picked(self, make):
        rng = np.random.default_rng(2)
        currents = rng.normal(size=(4, 7))
        references = currents.copy()
        references[1:, ::2] += rng.normal(size=(3, 4))
        batch = make(currents, references)
        rows = np.array([2, 2, 0, 3, 1, 1, 1])
        taken = batch.take(rows)
        assert len(taken) == rows.size and taken.bits == batch.bits
        assert np.array_equal(taken.wire_bytes(7), batch.wire_bytes(7)[rows])
        for position, row in enumerate(rows.tolist()):
            picked, original = taken[position], batch[row]
            assert np.array_equal(picked.indices, original.indices)
            assert np.array_equal(picked.values, original.values)
            assert picked.meta.keys() == original.meta.keys()
