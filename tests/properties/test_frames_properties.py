"""Property-based tests for the frame-format byte accounting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ProtocolError
from repro.network.frames import (
    FrameFormat,
    encoded_update_bytes,
    frame_size_bytes,
    select_frame_format,
)

counts = st.integers(min_value=0, max_value=10_000)
bit_widths = st.integers(min_value=2, max_value=16)

FIG3_FORMATS = (FrameFormat.UNCHANGED_INDEX, FrameFormat.INDEX_VALUE)


@given(total=counts, unsent=counts)
def test_selected_frame_is_minimal(total, unsent):
    """The auto-selected format never loses to the other one."""
    unsent = min(unsent, total)
    best = encoded_update_bytes(total, unsent)
    for fmt in FIG3_FORMATS:
        assert best <= frame_size_bytes(total, unsent, fmt)


@given(total=counts, unsent=counts, bits=bit_widths)
def test_selected_frame_is_minimal_with_quantization(total, unsent, bits):
    """With a bit width on offer, the selection beats all three formats."""
    unsent = min(unsent, total)
    best = encoded_update_bytes(total, unsent, bits)
    assert best <= encoded_update_bytes(total, unsent)
    for fmt in FrameFormat:
        assert best <= frame_size_bytes(total, unsent, fmt, bits=bits)


@given(total=counts, unsent=counts)
def test_sizes_are_nonnegative_and_monotone_in_sent(total, unsent):
    unsent = min(unsent, total)
    size = encoded_update_bytes(total, unsent)
    assert size >= 0
    if unsent < total:
        # suppressing one more parameter never increases the optimal size
        assert encoded_update_bytes(total, unsent + 1) <= size


@given(total=st.integers(min_value=1, max_value=10_000))
def test_full_suppression_is_cheapest(total):
    all_suppressed = encoded_update_bytes(total, total)
    nothing_suppressed = encoded_update_bytes(total, 0)
    assert all_suppressed <= nothing_suppressed
    assert all_suppressed == 0  # INDEX_VALUE frame of nothing


@given(total=counts, unsent=counts)
def test_crossover_rule_matches_formula_comparison(total, unsent):
    """select_frame_format implements exactly the paper's N > 2M+1 rule."""
    unsent = min(unsent, total)
    chosen = select_frame_format(total, unsent)
    a = frame_size_bytes(total, unsent, FrameFormat.UNCHANGED_INDEX)
    b = frame_size_bytes(total, unsent, FrameFormat.INDEX_VALUE)
    if a < b:
        assert chosen is FrameFormat.UNCHANGED_INDEX
    elif b < a:
        assert chosen is FrameFormat.INDEX_VALUE
    else:
        assert chosen is FrameFormat.INDEX_VALUE  # the paper's tie branch


@given(
    total=st.integers(min_value=0, max_value=300),
    bits=st.one_of(st.none(), bit_widths),
)
def test_array_of_counts_sizes_like_the_scalar_call(total, bits):
    """A round's frames sized at once equal the frames sized one by one."""
    unsent = np.arange(total + 1)
    sizes = encoded_update_bytes(total, unsent, bits)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [
        encoded_update_bytes(total, int(m), bits) for m in unsent
    ]


def test_array_of_counts_is_range_checked():
    for bad in (np.array([0, 5]), np.array([-1, 2])):
        with pytest.raises(ProtocolError):
            encoded_update_bytes(4, bad)
