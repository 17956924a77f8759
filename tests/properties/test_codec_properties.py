"""Property-based tests: the binary codecs round-trip every valid update,
their payload lengths equal the Fig. 3 size formulas, and a frame with
flipped bits is never decoded as an update."""

import socket

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.exceptions import FrameCorruptionError, ProtocolError
from repro.network.codec import (
    _U32,
    _decode_index_value,
    _decode_unchanged_index,
    _encode_unchanged_index,
    decode_update,
    encode_update,
)
from repro.network.frames import FrameFormat, frame_size_bytes
from repro.network.messages import ParameterUpdate, QuantizationInfo
from repro.runtime.transport import HEADER_BYTES, FrameConnection, FrameParser


@st.composite
def updates(draw):
    total = draw(st.integers(min_value=1, max_value=300))
    n_sent = draw(st.integers(min_value=0, max_value=total))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(total, size=n_sent, replace=False)).astype(np.int64)
    values = rng.normal(scale=draw(st.floats(1e-6, 1e6)), size=n_sent)
    return ParameterUpdate(
        sender=draw(st.integers(0, 100)),
        round_index=draw(st.integers(0, 10_000)),
        total_params=total,
        indices=indices,
        values=values,
    )


@given(updates())
@settings(max_examples=120, deadline=None)
def test_round_trip_is_lossless(update):
    payload = encode_update(update)
    decoded = decode_update(
        payload, update.frame_format, update.total_params, update.sender,
        update.round_index,
    )
    np.testing.assert_array_equal(decoded.indices, update.indices)
    np.testing.assert_array_equal(decoded.values, update.values)
    assert decoded.frame_format is update.frame_format


@given(updates())
@settings(max_examples=120, deadline=None)
def test_payload_length_matches_accounting(update):
    assert len(encode_update(update)) == update.size_bytes


@given(updates())
@settings(max_examples=60, deadline=None)
def test_applying_decoded_update_equals_applying_original(update):
    rng = np.random.default_rng(0)
    target = rng.normal(size=update.total_params)
    decoded = decode_update(
        encode_update(update), update.frame_format, update.total_params,
        update.sender, update.round_index,
    )
    np.testing.assert_array_equal(
        decoded.apply_to(target), update.apply_to(target)
    )


# -- the pre-PR-24 index validation and encoding, kept as the oracle ------------
#
# PR 24 replaced ``np.any(np.diff(x) <= 0) or x.min() < 0 or x.max() >= N``
# by one comparison of the last element plus one pairwise comparison, and
# the two-copy ``uint32 → ">u4"`` conversion by one. Same bytes out, same
# inputs rejected with the same messages — checked against the old code.


def _old_decode_unchanged_index(payload, total_params):
    if len(payload) < _U32.size:
        raise ProtocolError("truncated UNCHANGED_INDEX frame: missing count")
    (unchanged_count,) = _U32.unpack_from(payload, 0)
    if unchanged_count > total_params:
        raise ProtocolError(
            f"unchanged count {unchanged_count} exceeds total {total_params}"
        )
    expected = frame_size_bytes(
        total_params, unchanged_count, FrameFormat.UNCHANGED_INDEX
    )
    if len(payload) != expected:
        raise ProtocolError(
            f"UNCHANGED_INDEX frame is {len(payload)} bytes, expected {expected}"
        )
    offset = _U32.size
    unchanged = np.frombuffer(
        payload, dtype=">u4", count=unchanged_count, offset=offset
    ).astype(np.int64)
    offset += 4 * unchanged_count
    values = np.frombuffer(
        payload, dtype=">f8", count=total_params - unchanged_count, offset=offset
    ).astype(float)
    if unchanged.size and (
        np.any(np.diff(unchanged) <= 0)
        or unchanged.min() < 0
        or unchanged.max() >= total_params
    ):
        raise ProtocolError("UNCHANGED_INDEX frame has invalid index list")
    sent_mask = np.ones(total_params, dtype=bool)
    sent_mask[unchanged] = False
    return np.flatnonzero(sent_mask).astype(np.int64), values


def _old_decode_index_value(payload, total_params):
    record = np.dtype([("index", ">u4"), ("value", ">f8")])
    if len(payload) % record.itemsize != 0:
        raise ProtocolError(
            f"INDEX_VALUE frame length {len(payload)} is not a multiple of "
            f"{record.itemsize}"
        )
    records = np.frombuffer(payload, dtype=record)
    indices = records["index"].astype(np.int64)
    if indices.size and (
        np.any(np.diff(indices) <= 0)
        or indices.min() < 0
        or indices.max() >= total_params
    ):
        raise ProtocolError("INDEX_VALUE frame has invalid index sequence")
    return indices, records["value"].astype(float)


def _old_encode_unchanged_index(update):
    sent_mask = np.zeros(update.total_params, dtype=bool)
    sent_mask[update.indices] = True
    unchanged = np.flatnonzero(~sent_mask).astype(np.uint32)
    return b"".join([
        _U32.pack(unchanged.size),
        unchanged.astype(">u4").tobytes(),
        update.values.astype(">f8").tobytes(),
    ])


def _outcome(decode, payload, total_params):
    """``("ok", indices, values)`` or ``("error", message)``."""
    try:
        indices, values = decode(payload, total_params)
    except ProtocolError as error:
        return ("error", str(error))
    return ("ok", indices.tolist(), values.tolist(), indices.dtype, values.dtype)


# Small totals make in-range, repeated and out-of-range draws all likely;
# the upper end of u32 exercises the unsigned-cannot-be-negative argument.
_index_lists = st.lists(
    st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 1)), max_size=24
) | st.lists(st.integers(0, 40), max_size=24).map(sorted)


@given(_index_lists, st.integers(min_value=1, max_value=48))
@settings(max_examples=400, deadline=None)
def test_index_value_validation_matches_the_old_expression(index_list, total):
    record = np.dtype([("index", ">u4"), ("value", ">f8")])
    records = np.zeros(len(index_list), dtype=record)
    records["index"] = index_list
    records["value"] = np.arange(len(index_list), dtype=float)
    payload = records.tobytes()
    assert _outcome(_decode_index_value, payload, total) == _outcome(
        _old_decode_index_value, payload, total
    )


@given(_index_lists, st.integers(min_value=1, max_value=48))
@settings(max_examples=400, deadline=None)
def test_unchanged_index_validation_matches_the_old_expression(index_list, total):
    index_list = index_list[:total]  # the count check comes first
    n_values = total - len(index_list)
    payload = (
        _U32.pack(len(index_list))
        + np.asarray(index_list, dtype=">u4").tobytes()
        + np.arange(n_values, dtype=">f8").tobytes()
    )
    assert _outcome(_decode_unchanged_index, payload, total) == _outcome(
        _old_decode_unchanged_index, payload, total
    )


@given(updates(), st.data())
@settings(max_examples=200, deadline=None)
def test_truncated_payloads_are_rejected_like_before(update, data):
    payload = encode_update(update)
    cut = data.draw(st.integers(0, len(payload)))
    new, old = (
        (_decode_unchanged_index, _old_decode_unchanged_index)
        if update.frame_format is FrameFormat.UNCHANGED_INDEX
        else (_decode_index_value, _old_decode_index_value)
    )
    assert _outcome(new, payload[:cut], update.total_params) == _outcome(
        old, payload[:cut], update.total_params
    )


@given(updates())
@settings(max_examples=200, deadline=None)
def test_unchanged_index_encoding_is_byte_identical(update):
    assert _encode_unchanged_index(update) == _old_encode_unchanged_index(update)


# -- bit flips on the wire --------------------------------------------------------
#
# A frame as ``FrameConnection.send_update`` writes it, with 1-3 bits flipped
# anywhere, header included: the parser must report the damage, never hand
# out an update. A flip inside ``payload_len`` may instead leave the parser
# waiting for bytes that never come (``None``).

#: Byte offsets of the header's ``payload_len`` field.
_PAYLOAD_LEN = range(13, 17)


@st.composite
def wire_updates(draw):
    """One update of each wire format: UNCHANGED_INDEX, INDEX_VALUE, QUANTIZED."""
    kind = draw(st.sampled_from(list(FrameFormat)))
    total = draw(st.integers(min_value=2, max_value=200))
    if kind is FrameFormat.UNCHANGED_INDEX:  # N > 2M + 1, M unsent
        unsent = draw(st.integers(0, (total - 2) // 2))
    elif kind is FrameFormat.INDEX_VALUE:
        unsent = draw(st.integers(total // 2, total))
    else:
        unsent = draw(st.integers(0, total))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_sent = total - unsent
    indices = np.sort(rng.choice(total, size=n_sent, replace=False))
    quantization = None
    values = rng.normal(size=n_sent)
    if kind is FrameFormat.QUANTIZED:
        bits = draw(st.integers(2, 8))
        cap = 2 ** (bits - 1) - 1
        levels = rng.integers(-cap, cap + 1, size=n_sent)
        quantization = QuantizationInfo(bits, 0.5, levels)
        values = levels * (0.5 / cap)
    update = ParameterUpdate(
        sender=draw(st.integers(0, 100)),
        round_index=draw(st.integers(0, 10_000)),
        total_params=total,
        indices=indices,
        values=values,
        quantization=quantization,
    )
    assume(update.frame_format is kind)
    return update


@pytest.fixture(scope="module")
def wire():
    """``update -> bytes`` exactly as a ``FrameConnection`` sends them."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        sender_sock = socket.create_connection(listener.getsockname())
        receiver, _ = listener.accept()
    sender = FrameConnection(sender_sock)

    def frame(update):
        size = HEADER_BYTES + len(encode_update(update))
        sender.send_update(update)
        data = b""
        while len(data) < size:
            data += receiver.recv(size - len(data))
        return data

    yield frame
    sender.close()
    receiver.close()


@given(wire_updates(), st.data())
@settings(max_examples=300, deadline=None)
def test_flipped_frame_bits_are_never_decoded(wire, update, data):
    frame = bytearray(wire(update))
    flips = data.draw(
        st.lists(st.integers(0, 8 * len(frame) - 1), min_size=1, max_size=3,
                 unique=True)
    )
    for bit in flips:
        frame[bit // 8] ^= 1 << (bit % 8)
    parser = FrameParser()
    parser.feed(bytes(frame))
    try:
        outcome = parser.next_frame()
    except ProtocolError:
        return
    if outcome is None:
        assert any(bit // 8 in _PAYLOAD_LEN for bit in flips)
    else:
        assert isinstance(outcome, FrameCorruptionError), outcome
