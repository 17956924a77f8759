"""Tests for repro.network.messages.ParameterUpdate."""

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.network.frames import FrameFormat
from repro.network.messages import ParameterUpdate


def make_update(total=20, indices=(1, 5, 7), values=(1.0, 2.0, 3.0)):
    return ParameterUpdate(
        sender=0,
        round_index=3,
        total_params=total,
        indices=np.array(indices, dtype=np.int64),
        values=np.array(values, dtype=float),
    )


class TestConstruction:
    def test_counts(self):
        update = make_update()
        assert update.n_sent == 3
        assert update.n_unsent == 17

    def test_frame_selected_and_sized(self):
        update = make_update()
        # N=20, M=17 -> N <= 2M+1 -> INDEX_VALUE, 12*3 bytes
        assert update.frame_format is FrameFormat.INDEX_VALUE
        assert update.size_bytes == 36

    def test_mostly_sent_uses_unchanged_index_frame(self):
        update = make_update(total=20, indices=tuple(range(18)), values=(0.0,) * 18)
        assert update.frame_format is FrameFormat.UNCHANGED_INDEX
        assert update.size_bytes == 4 + 8 * 20 - 4 * 2

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ProtocolError):
            make_update(indices=(5, 1, 7))

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ProtocolError):
            make_update(indices=(1, 1, 7))

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ProtocolError):
            make_update(total=5, indices=(1, 2, 5))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ProtocolError):
            make_update(indices=(1, 2), values=(1.0, 2.0, 3.0))

    def test_empty_update_allowed(self):
        update = make_update(indices=(), values=())
        assert update.n_sent == 0
        assert update.size_bytes == 0  # INDEX_VALUE frame of nothing


class TestApply:
    def test_overlays_only_sent_coordinates(self):
        update = make_update(total=5, indices=(1, 3), values=(10.0, 30.0))
        target = np.zeros(5)
        result = update.apply_to(target)
        np.testing.assert_array_equal(result, [0.0, 10.0, 0.0, 30.0, 0.0])

    def test_does_not_mutate_target(self):
        update = make_update(total=5, indices=(0,), values=(9.0,))
        target = np.zeros(5)
        update.apply_to(target)
        np.testing.assert_array_equal(target, np.zeros(5))

    def test_shape_mismatch_rejected(self):
        update = make_update(total=5, indices=(0,), values=(9.0,))
        with pytest.raises(ProtocolError):
            update.apply_to(np.zeros(6))


class TestDense:
    def test_dense_carries_everything(self):
        params = np.arange(7.0)
        update = ParameterUpdate.dense(2, 1, params)
        np.testing.assert_array_equal(update.apply_to(np.zeros(7)), params)
        assert update.n_unsent == 0
        assert update.sender == 2


class TestIndexValidationMessages:
    """The one-pass index check rejects what the three-reduction one rejected.

    Same :class:`ProtocolError` text for each malformed input — including
    which of two defects is named when a frame has both (range before order).
    """

    OUT_OF_RANGE = r"^indices out of range 0\.\.19$"
    NOT_INCREASING = r"^indices must be strictly increasing$"

    @pytest.mark.parametrize(
        "indices, message",
        [
            ((5, 1, 7), NOT_INCREASING),  # unsorted
            ((7, 5, 1), NOT_INCREASING),  # descending
            ((1, 1, 7), NOT_INCREASING),  # duplicate
            ((1, 7, 7), NOT_INCREASING),  # duplicate at the end
            ((-1, 5, 7), OUT_OF_RANGE),  # negative
            ((1, 5, 20), OUT_OF_RANGE),  # == total_params
            ((1, 5, 99), OUT_OF_RANGE),  # > total_params
            ((5, -1, 7), OUT_OF_RANGE),  # unsorted and negative: range is named
            ((25, 1, 7), OUT_OF_RANGE),  # unsorted and too large, hidden from the ends
            ((1, 30, 7), OUT_OF_RANGE),
        ],
    )
    def test_malformed_indices(self, indices, message):
        with pytest.raises(ProtocolError, match=message):
            make_update(indices=indices)

    def test_single_index_bounds(self):
        make_update(indices=(0,), values=(1.0,))
        make_update(indices=(19,), values=(1.0,))
        for bad in (-1, 20):
            with pytest.raises(ProtocolError, match=self.OUT_OF_RANGE):
                make_update(indices=(bad,), values=(1.0,))

    def test_two_dimensional_arrays_rejected(self):
        with pytest.raises(ProtocolError, match="^indices and values must be 1-D arrays$"):
            ParameterUpdate(0, 1, 20, np.array([[1, 2]]), np.array([[1.0, 2.0]]))
        with pytest.raises(ProtocolError, match="^indices and values must be 1-D arrays$"):
            ParameterUpdate(0, 1, 20, np.array([1, 2]), np.array([[1.0, 2.0]]))

    def test_length_mismatch_message(self):
        with pytest.raises(
            ProtocolError,
            match=r"^indices \(\(2,\)\) and values \(\(3,\)\) differ in length$",
        ):
            make_update(indices=(1, 2), values=(1.0, 2.0, 3.0))

    def test_validation_agrees_with_the_three_reduction_check(self):
        """Exhaustive over short index tuples: same verdict as min / max / diff."""
        import itertools

        total = 4
        for length in (1, 2, 3):
            for indices in itertools.product(range(-1, total + 1), repeat=length):
                array = np.array(indices, dtype=np.int64)
                if array.min() < 0 or array.max() >= total:
                    expected = "indices out of range 0..3"
                elif np.any(np.diff(array) <= 0):
                    expected = "indices must be strictly increasing"
                else:
                    expected = None
                try:
                    ParameterUpdate(0, 1, total, array, np.zeros(length))
                    raised = None
                except ProtocolError as error:
                    raised = str(error)
                assert raised == expected, indices


class TestIndicesPassThrough:
    """Selection's index array reaches the frame without a copy or a cast."""

    def test_select_parameters_yields_int64(self):
        from repro.core.selection import select_parameters

        current = np.array([0.0, 2.0, 0.0, 3.0, 0.5])
        selection = select_parameters(current, np.zeros(5), 0.4)
        assert selection.indices.dtype == np.int64
        assert selection.indices.tolist() == [1, 3, 4]

    def test_update_keeps_the_arrays_it_was_given(self):
        from repro.compression.base import Payload, payload_to_update
        from repro.core.selection import select_parameters

        current = np.array([0.0, 2.0, 0.0, 3.0, 0.5])
        selection = select_parameters(current, np.zeros(5), 0.4)
        payload = Payload(selection.indices, selection.values, {})
        update = payload_to_update(payload, sender=0, round_index=1, total_params=5)
        assert update.indices is selection.indices
        assert update.values is selection.values
