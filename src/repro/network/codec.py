"""Binary wire codecs for the two Fig. 3 frame structures.

:mod:`repro.network.frames` does the byte *accounting*; this module does the
actual *encoding* — producing byte strings whose lengths match those formulas
exactly, and decoding them back. The simulation never needs real bytes (it
charges sizes), but a production deployment does, and round-tripping through
the real codec is the strongest possible test that the size formulas are
honest.

Wire layouts (big-endian):

* ``UNCHANGED_INDEX`` — ``u32 M`` (count of unchanged parameters), then the
  ``M`` unchanged indexes as ``u32``, then the ``N - M`` updated values as
  ``f64`` in ascending index order. ``4 + 4M + 8(N - M)`` bytes.
* ``INDEX_VALUE`` — ``N - M`` records of ``u32 index`` + ``f64 value``.
  ``12 (N - M)`` bytes.

A third layout carries quantized payloads from ``repro.compression``:

* ``QUANTIZED`` — ``u8 bits``, ``u8 flags`` (bit 0 set = dense frame, index
  list omitted), ``f64 scale``, ``u32 K`` (sent count), the ``K`` sent
  indexes as ``u32`` (absent when dense), then the ``K`` signed levels
  bit-packed MSB-first at ``bits`` bits each (stored biased by
  ``L = 2**(bits-1) - 1`` so every code is unsigned).
  ``14 + 4K·[not dense] + ceil(K·bits / 8)`` bytes. Decoding returns an
  *additive* update whose values are the reconstructed deltas — the
  receiver adds them onto its cached view, which carries bit-for-bit the
  same result as the sender's absolute values because both sides share one
  reconstruction expression (:func:`repro.network.frames.dequantize_levels`)
  and the receiver's view equals the sender's reference by protocol
  invariant.

The decoder needs to know the frame format and (for UNCHANGED_INDEX and
QUANTIZED) the total parameter count ``N``; in a deployment both ride in the
transport header, exactly as the paper's "frame structure" field would.

Each wire check runs once per frame: the decoder proves the count, the
exact length and the index list's order and range, then builds the update
through :meth:`ParameterUpdate._from_wire`, which re-checks none of it.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.exceptions import ProtocolError
from repro.network.frames import (
    FrameFormat,
    dequantize_levels,
    frame_size_bytes,
    quantization_levels,
    quantized_frame_bytes,
)
from repro.network.messages import (
    ParameterUpdate,
    QuantizationInfo,
    strictly_increasing,
)

_U32 = struct.Struct(">I")
_QUANT_PROLOGUE = struct.Struct(">BBdI")
_BE_U32 = np.dtype(">u4")
_BE_F64 = np.dtype(">f8")
#: One INDEX_VALUE record: ``u32 index`` + ``f64 value``.
_RECORD = np.dtype([("index", _BE_U32), ("value", _BE_F64)])

# The frames are tens of entries long, so NumPy's per-call overhead is most
# of their cost: the hot calls below pass prebuilt dtypes positionally.

#: QUANTIZED flags-byte bit: the frame is dense (index list omitted).
_FLAG_DENSE = 0x01


def encode_update(update: ParameterUpdate) -> bytes:
    """Serialize an update in its (auto-selected) frame format.

    The returned payload's length equals ``update.size_bytes`` — the byte
    accounting and the real wire format agree by construction.
    """
    if update.frame_format is FrameFormat.UNCHANGED_INDEX:
        payload = _encode_unchanged_index(update)
    elif update.frame_format is FrameFormat.QUANTIZED:
        payload = _encode_quantized(update)
    else:
        payload = _encode_index_value(update)
    if len(payload) != update.size_bytes:
        raise ProtocolError(
            f"encoded size {len(payload)} != accounted size {update.size_bytes}"
        )
    return payload


def decode_update(
    payload: bytes,
    frame_format: FrameFormat,
    total_params: int,
    sender: int,
    round_index: int,
) -> ParameterUpdate:
    """Parse a payload back into a :class:`ParameterUpdate`.

    ``frame_format`` and ``total_params`` come from the transport header.
    Raises :class:`~repro.exceptions.ProtocolError` on any malformed input.
    """
    quantization = None
    if frame_format is FrameFormat.UNCHANGED_INDEX:
        indices, values = _decode_unchanged_index(payload, total_params)
    elif frame_format is FrameFormat.INDEX_VALUE:
        indices, values = _decode_index_value(payload, total_params)
    elif frame_format is FrameFormat.QUANTIZED:
        indices, values, quantization = _decode_quantized(payload, total_params)
    else:
        raise ProtocolError(f"unknown frame format {frame_format!r}")
    return ParameterUpdate._from_wire(
        sender, round_index, total_params, indices, values, quantization
    )


def _all_true(size: int) -> np.ndarray:
    """``np.ones(size, bool)`` without its Python layer (half its cost here)."""
    mask = np.empty(size, bool)
    mask.fill(True)
    return mask


def _strictly_increasing_below(indices: np.ndarray, total_params: int) -> bool:
    """Whether a decoded ``>u4`` index list is a valid ascending index set.

    Unsigned values cannot be negative and a strictly increasing list has
    its maximum last, so the range check is one scalar comparison.
    """
    return not indices.size or (
        indices[-1] < total_params and strictly_increasing(indices)
    )


# -- UNCHANGED_INDEX -----------------------------------------------------------


def _encode_unchanged_index(update: ParameterUpdate) -> bytes:
    values = update.values.astype(_BE_F64).tobytes()
    if update.indices.size == update.total_params:
        return _U32.pack(0) + values
    unchanged_mask = _all_true(update.total_params)
    unchanged_mask[update.indices] = False
    unchanged = unchanged_mask.nonzero()[0].astype(_BE_U32)
    return b"".join((_U32.pack(unchanged.size), unchanged.tobytes(), values))


def _decode_unchanged_index(
    payload: bytes, total_params: int
) -> tuple[np.ndarray, np.ndarray]:
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
        payload, _BE_U32, unchanged_count, offset
    ).astype(np.int64)
    offset += 4 * unchanged_count
    values = np.frombuffer(
        payload, _BE_F64, total_params - unchanged_count, offset
    ).astype(np.float64)
    if not _strictly_increasing_below(unchanged, total_params):
        raise ProtocolError("UNCHANGED_INDEX frame has invalid index list")
    if not unchanged_count:
        return np.arange(total_params, dtype=np.int64), values
    sent_mask = _all_true(total_params)
    sent_mask[unchanged] = False
    return sent_mask.nonzero()[0].astype(np.int64, copy=False), values


# -- INDEX_VALUE ---------------------------------------------------------------


def _encode_index_value(update: ParameterUpdate) -> bytes:
    records = np.empty(update.n_sent, dtype=_RECORD)
    records["index"] = update.indices
    records["value"] = update.values
    return records.tobytes()


def _decode_index_value(
    payload: bytes, total_params: int
) -> tuple[np.ndarray, np.ndarray]:
    if len(payload) % _RECORD.itemsize != 0:
        raise ProtocolError(
            f"INDEX_VALUE frame length {len(payload)} is not a multiple of "
            f"{_RECORD.itemsize}"
        )
    records = np.frombuffer(payload, _RECORD)
    indices = records["index"].astype(np.int64)
    if not _strictly_increasing_below(indices, total_params):
        raise ProtocolError("INDEX_VALUE frame has invalid index sequence")
    return indices, records["value"].astype(np.float64)


# -- QUANTIZED -----------------------------------------------------------------


def _pack_levels(levels: np.ndarray, bits: int) -> bytes:
    """Bit-pack signed levels at ``bits`` bits each, MSB-first, zero-padded."""
    codes = levels.astype(np.int64) + quantization_levels(bits)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    bit_matrix = ((codes[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.ravel()).tobytes()


def _unpack_levels(packed: bytes, count: int, bits: int) -> np.ndarray:
    expected = (count * bits + 7) // 8
    if len(packed) != expected:
        raise ProtocolError(
            f"QUANTIZED level block is {len(packed)} bytes, expected {expected}"
        )
    flat = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
    bit_matrix = flat[: count * bits].reshape(count, bits).astype(np.int64)
    weights = 1 << np.arange(bits - 1, -1, -1, dtype=np.int64)
    codes = bit_matrix @ weights
    cap = quantization_levels(bits)
    if codes.size and int(codes.max()) > 2 * cap:
        raise ProtocolError(
            f"QUANTIZED frame carries codes above the {bits}-bit level range"
        )
    return codes - cap


def _encode_quantized(update: ParameterUpdate) -> bytes:
    q = update.quantization
    if q is None:
        raise ProtocolError("QUANTIZED frame requires quantization metadata")
    dense = update.n_unsent == 0
    prologue = _QUANT_PROLOGUE.pack(
        q.bits, _FLAG_DENSE if dense else 0, q.scale, update.n_sent
    )
    index_block = b"" if dense else update.indices.astype(">u4").tobytes()
    return prologue + index_block + _pack_levels(q.levels, q.bits)


def _decode_quantized(
    payload: bytes, total_params: int
) -> tuple[np.ndarray, np.ndarray, QuantizationInfo]:
    if len(payload) < _QUANT_PROLOGUE.size:
        raise ProtocolError("truncated QUANTIZED frame: missing prologue")
    bits, flags, scale, sent_count = _QUANT_PROLOGUE.unpack_from(payload, 0)
    if bits < 2:
        raise ProtocolError(f"QUANTIZED frame declares invalid bit width {bits}")
    if sent_count > total_params:
        raise ProtocolError(
            f"QUANTIZED sent count {sent_count} exceeds total {total_params}"
        )
    dense = bool(flags & _FLAG_DENSE)
    if dense and sent_count != total_params:
        raise ProtocolError(
            f"dense QUANTIZED frame carries {sent_count} of {total_params} "
            "parameters"
        )
    expected = quantized_frame_bytes(total_params, total_params - sent_count, bits)
    if not dense and sent_count == total_params:
        # A full frame must use the dense layout; a sparse-layout encoding
        # of it would be 4K bytes larger than the accounted size.
        raise ProtocolError("full QUANTIZED frame is missing its dense flag")
    if len(payload) != expected:
        raise ProtocolError(
            f"QUANTIZED frame is {len(payload)} bytes, expected {expected}"
        )
    offset = _QUANT_PROLOGUE.size
    if dense:
        indices = np.arange(total_params, dtype=np.int64)
    else:
        indices = np.frombuffer(
            payload, dtype=">u4", count=sent_count, offset=offset
        ).astype(np.int64)
        offset += 4 * sent_count
        if not _strictly_increasing_below(indices, total_params):
            raise ProtocolError("QUANTIZED frame has invalid index sequence")
    levels = _unpack_levels(payload[offset:], sent_count, bits)
    return (
        indices,
        dequantize_levels(levels, scale, bits),
        QuantizationInfo(bits=bits, scale=scale, levels=levels),
    )
