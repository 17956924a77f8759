"""The incremental frame parser: any cut of the byte stream, same frames."""

import struct
import zlib

import numpy as np
import pytest

from repro.exceptions import FrameCorruptionError, ProtocolError
from repro.network.codec import encode_update
from repro.network.messages import ParameterUpdate
from repro.runtime.transport import HEADER_BYTES, FrameParser

_FIELDS = struct.Struct(">IIBII")  # the header before its CRC32
_CODES = {"UNCHANGED_INDEX": 0, "INDEX_VALUE": 1, "QUANTIZED": 2}


def make_update(total, n_sent, seed, round_index):
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(total, size=n_sent, replace=False))
    return ParameterUpdate(
        sender=seed,
        round_index=round_index,
        total_params=total,
        indices=indices.astype(np.int64),
        values=rng.normal(size=n_sent),
    )


def pack_frame(sender, round_index, code, total_params, payload, corrupt=False):
    """The wire rule by hand: 17 header bytes, then the CRC32 of those
    bytes followed by the payload, then the payload."""
    fields = _FIELDS.pack(sender, round_index, code, total_params, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(fields))
    return fields + struct.pack(">I", crc ^ 0xDEADBEEF if corrupt else crc) + payload


def frame_bytes(update, corrupt=False, code=None):
    return pack_frame(
        update.sender,
        update.round_index,
        _CODES[update.frame_format.name] if code is None else code,
        update.total_params,
        encode_update(update),
        corrupt,
    )


# Both index formats, a dense frame, and an empty one (zero-length payload
# is impossible for UNCHANGED_INDEX, so "nothing sent" still has a count).
UPDATES = [
    make_update(30, 7, seed=1, round_index=1),  # INDEX_VALUE
    make_update(30, 28, seed=2, round_index=2),  # UNCHANGED_INDEX
    ParameterUpdate.dense(3, 3, np.arange(6.0)),
    make_update(12, 0, seed=4, round_index=4),
]


def drain(parser):
    """Every frame the parser can complete right now."""
    frames = []
    while (frame := parser.next_frame()) is not None:
        frames.append(frame)
    return frames


def parse_chunks(chunks):
    parser = FrameParser("server 1")
    frames = []
    for chunk in chunks:
        parser.feed(chunk)
        frames.extend(drain(parser))
    assert not parser.buffered  # nothing left over
    return frames


def assert_same_updates(frames, updates):
    assert len(frames) == len(updates)
    for frame, update in zip(frames, updates):
        assert (frame.sender, frame.round_index) == (update.sender, update.round_index)
        assert frame.total_params == update.total_params
        np.testing.assert_array_equal(frame.indices, update.indices)
        np.testing.assert_array_equal(frame.values, update.values)


class TestAnyCutOfTheStream:
    stream = b"".join(frame_bytes(update) for update in UPDATES)

    def test_whole_stream_at_once(self):
        assert_same_updates(parse_chunks([self.stream]), UPDATES)

    def test_split_at_every_offset(self):
        for cut in range(1, len(self.stream)):
            frames = parse_chunks([self.stream[:cut], self.stream[cut:]])
            assert_same_updates(frames, UPDATES)

    def test_one_byte_at_a_time(self):
        chunks = [self.stream[i:i + 1] for i in range(len(self.stream))]
        assert_same_updates(parse_chunks(chunks), UPDATES)

    def test_no_frame_is_handed_out_before_its_last_byte(self):
        parser = FrameParser()
        first = frame_bytes(UPDATES[0])
        parser.feed(first[:-1])
        assert parser.next_frame() is None
        assert parser.buffered
        parser.feed(first[-1:])
        assert_same_updates(drain(parser), UPDATES[:1])


class TestCorruption:
    def test_corrupted_middle_frame_is_reported_and_neighbours_decode(self):
        stream = (
            frame_bytes(UPDATES[0])
            + frame_bytes(UPDATES[1], corrupt=True)
            + frame_bytes(UPDATES[2])
        )
        for cut in range(1, len(stream)):
            first, bad, last = parse_chunks([stream[:cut], stream[cut:]])
            assert_same_updates([first, last], [UPDATES[0], UPDATES[2]])
            assert isinstance(bad, FrameCorruptionError)
            assert (bad.sender, bad.round_index) == (2, 2)
            assert "server 1" in str(bad) and "CRC32" in str(bad)

    def test_flipped_payload_bit_is_caught(self):
        data = bytearray(frame_bytes(UPDATES[0]))
        data[HEADER_BYTES + 3] ^= 0x10
        (frame,) = parse_chunks([bytes(data)])
        assert isinstance(frame, FrameCorruptionError)


class TestBrokenStreams:
    """Unknown format codes and EOF are ``ProtocolError`` and nothing else."""

    def test_unknown_format_code(self):
        parser = FrameParser("server 9")
        parser.feed(frame_bytes(UPDATES[0], code=7))
        with pytest.raises(ProtocolError, match="unknown frame-format code 7.*server 9"):
            parser.next_frame()

    def test_unknown_format_code_is_seen_with_the_header_alone(self):
        parser = FrameParser()
        parser.feed(frame_bytes(UPDATES[0], code=200)[:HEADER_BYTES])
        with pytest.raises(ProtocolError, match="unknown frame-format code"):
            parser.next_frame()

    def test_eof_between_frames(self):
        parser = FrameParser("server 2")
        parser.feed(frame_bytes(UPDATES[0]))
        assert_same_updates(drain(parser), UPDATES[:1])
        with pytest.raises(ProtocolError, match="server 2.*EOF before frame start"):
            parser.feed(b"")

    def test_eof_mid_frame_at_every_offset(self):
        data = frame_bytes(UPDATES[0])
        payload_len = len(data) - HEADER_BYTES
        for have in range(1, len(data)):
            parser = FrameParser("server 2")
            parser.feed(data[:have])
            assert parser.next_frame() is None
            with pytest.raises(ProtocolError) as excinfo:
                parser.feed(b"")
            assert type(excinfo.value) is ProtocolError
            if have < HEADER_BYTES:
                # What must follow a frame's first byte: the header's rest.
                expected = f"{HEADER_BYTES - have} of {HEADER_BYTES - 1}"
            else:
                expected = f"{len(data) - have} of {payload_len}"
            assert f"mid-frame: {expected} expected bytes" in str(excinfo.value)

    def test_malformed_payload_with_a_valid_crc_is_a_protocol_error(self):
        payload = b"\x00" * 7  # not a multiple of the 12-byte INDEX_VALUE record
        parser = FrameParser()
        parser.feed(pack_frame(1, 1, 1, 30, payload))
        with pytest.raises(ProtocolError) as excinfo:
            parser.next_frame()
        assert not isinstance(excinfo.value, FrameCorruptionError)


def test_take_pops_a_preamble_only_once_complete():
    parser = FrameParser()
    parser.feed(b"\x00\x00")
    assert parser.take(4) is None
    parser.feed(b"\x00\x05" + frame_bytes(UPDATES[0]))
    assert parser.take(4) == (5).to_bytes(4, "big")
    assert_same_updates(drain(parser), UPDATES[:1])
