"""Tests for repro.core.selection.select_parameters."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.selection import select_parameters
from repro.exceptions import ProtocolError


class TestSelection:
    def test_sends_only_changes_above_threshold(self):
        current = np.array([1.0, 2.0, 3.0, 4.0])
        reference = np.array([1.0, 2.05, 3.5, 4.0])
        selection = select_parameters(current, reference, threshold=0.1)
        np.testing.assert_array_equal(selection.indices, [2])
        np.testing.assert_array_equal(selection.values, [3.0])

    def test_zero_threshold_sends_any_nonzero_change(self):
        current = np.array([1.0, 2.0, 3.0])
        reference = np.array([1.0, 2.0 + 1e-15, 3.0])
        selection = select_parameters(current, reference, threshold=0.0)
        np.testing.assert_array_equal(selection.indices, [1])

    def test_exact_ties_are_suppressed_even_at_zero_threshold(self):
        current = np.array([1.0, 2.0])
        selection = select_parameters(current, current.copy(), threshold=0.0)
        assert selection.indices.size == 0
        assert selection.suppressed_max == 0.0

    def test_suppressed_max_is_largest_suppressed_change(self):
        current = np.array([1.0, 2.0, 3.0])
        reference = np.array([1.02, 2.08, 4.0])
        selection = select_parameters(current, reference, threshold=0.1)
        np.testing.assert_array_equal(selection.indices, [2])
        assert selection.suppressed_max == pytest.approx(0.08)

    def test_threshold_boundary_is_strict(self):
        # 1.5 - 1.25 = 0.25 exactly in binary floating point.
        current = np.array([1.5])
        reference = np.array([1.25])
        at_boundary = select_parameters(current, reference, threshold=0.25)
        assert at_boundary.indices.size == 0  # strictly greater than required

    def test_indices_are_sorted(self):
        rng = np.random.default_rng(0)
        current = rng.normal(size=50)
        reference = rng.normal(size=50)
        selection = select_parameters(current, reference, threshold=0.5)
        assert np.all(np.diff(selection.indices) > 0)

    def test_values_align_with_indices(self):
        current = np.array([10.0, 20.0, 30.0])
        reference = np.zeros(3)
        selection = select_parameters(current, reference, threshold=15.0)
        np.testing.assert_array_equal(selection.indices, [1, 2])
        np.testing.assert_array_equal(selection.values, [20.0, 30.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            select_parameters(np.zeros(3), np.zeros(4), 0.1)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ProtocolError):
            select_parameters(np.zeros(3), np.zeros(3), -0.1)


def _old_selection(current, reference, threshold):
    """The boolean-indexing spelling ``select_parameters`` used to have."""
    delta = np.abs(current - reference)
    send_mask = delta > threshold
    suppressed = delta[~send_mask]
    suppressed_max = float(suppressed.max()) if suppressed.size else 0.0
    return np.flatnonzero(send_mask), suppressed_max


_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf]),
    st.floats(-1e6, 1e6, allow_subnormal=True),
)


def _arrays(current, reference, threshold):
    return np.array(current, dtype=float), np.array(reference, dtype=float), threshold


@st.composite
def _selection_inputs(draw):
    n = draw(st.integers(0, 10))
    current = np.array(draw(st.lists(_ENTRIES, min_size=n, max_size=n)), dtype=float)
    # Mostly small perturbations of current, so ties, near-ties and
    # all-suppressed vectors are common; sometimes an unrelated vector.
    noise = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    scale = draw(st.sampled_from([0.0, 1e-9, 0.5, 1.0]))
    with np.errstate(invalid="ignore", over="ignore"):
        reference = current + scale * np.array(noise, dtype=float)
        deltas = np.abs(current - reference)
    candidates = [0.0, math.inf, *deltas[~np.isnan(deltas)].tolist()]
    threshold = draw(st.one_of(st.sampled_from(candidates), st.floats(0, 1e6)))
    return current, reference, threshold


class TestSelectionSpelling:
    """``max(where=, initial=0.0)`` and ``nonzero()[0]`` are the old
    boolean-indexing selection, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_selection_inputs())
    @example(_arrays([1.0, 2.0], [0.0, 0.0], 0.0))  # all sent
    @example(_arrays([1.0, 2.0], [1.0, 2.0], 0.0))  # none sent: exact ties
    @example(_arrays([0.0, -0.0], [-0.0, 0.0], 0.0))  # signed zeros tie
    @example(_arrays([1.0, math.nan], [1.5, 0.0], 0.1))  # a NaN change
    @example(_arrays([], [], 0.0))
    def test_matches_the_boolean_indexing_oracle(self, inputs):
        current, reference, threshold = inputs
        with np.errstate(invalid="ignore", over="ignore"):
            selection = select_parameters(current, reference, threshold)
            indices, suppressed_max = _old_selection(current, reference, threshold)
        assert selection.indices.dtype == np.int64
        np.testing.assert_array_equal(selection.indices, indices)
        np.testing.assert_array_equal(selection.values, current[indices])
        assert type(selection.suppressed_max) is float
        if math.isnan(suppressed_max):
            assert math.isnan(selection.suppressed_max)
        else:
            assert struct.pack("<d", selection.suppressed_max) == struct.pack(
                "<d", suppressed_max
            )
