"""The candidate frame structures and their byte accounting.

For a server hosting ``N`` parameters of which ``M`` are *not* sent, the two
full-precision structures of Fig. 3 are:

* **UNCHANGED_INDEX** frame — a 4-byte count of unchanged parameters, the
  ``M`` unchanged indexes (4 bytes each), then the ``N - M`` updated values
  in position order (8 bytes each, no per-value index needed):
  ``4 + 4M + 8(N - M) = 4 + 8N - 4M`` bytes.
* **INDEX_VALUE** frame — every updated parameter as an (index, value) pair:
  ``(4 + 8)(N - M) = 12(N - M)`` bytes.

The first is smaller exactly when ``N > 2M + 1`` (few parameters suppressed);
the second wins once most parameters are unchanged. SNAP picks per message.

Quantizing compressors (``repro.compression``) add a third structure:

* **QUANTIZED** frame — a 2-byte (bits, flags) prologue, one ``f64`` scale
  factor, a ``u32`` sent-count ``K = N - M``, the ``K`` sent indexes as
  ``u32`` (omitted entirely when ``K == N``: the dense case needs no index
  list), then the ``K`` signed quantization levels bit-packed at ``b`` bits
  each: ``14 + 4K·[K < N] + ceil(K·b / 8)`` bytes.

:func:`select_frame_format` extends the paper's rule to pick the cheapest of
the three whenever the update carries quantization metadata; full-precision
updates keep the paper's exact two-way rule. :func:`frame_layout` is the
cached pair (format, size) every update and ledger reads.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from repro.exceptions import ProtocolError

#: Bytes for an integer index/count field (paper: "4 bytes for an integer number").
INT_BYTES = 4
#: Bytes for a parameter value (paper: "8 bytes for a double number").
FLOAT_BYTES = 8

#: Inclusive bit-width range a QUANTIZED frame supports per level.
MIN_QUANT_BITS = 2
MAX_QUANT_BITS = 16


class FrameFormat(enum.Enum):
    """Wire format of a parameter-update frame (Fig. 3 plus QUANTIZED)."""

    #: Count + unchanged indexes + raw updated values: ``4 + 8N - 4M`` bytes.
    UNCHANGED_INDEX = "unchanged_index"
    #: (index, value) pairs for updated parameters only: ``12 (N - M)`` bytes.
    INDEX_VALUE = "index_value"
    #: Scale + indexes + bit-packed b-bit levels (quantized payloads only).
    QUANTIZED = "quantized"


def check_quant_bits(bits: int) -> int:
    """Validate a QUANTIZED frame's per-level bit width."""
    if not isinstance(bits, (int, np.integer)) or isinstance(bits, bool):
        raise ProtocolError(f"quantization bits must be an int, got {bits!r}")
    if not MIN_QUANT_BITS <= bits <= MAX_QUANT_BITS:
        raise ProtocolError(
            f"quantization bits must be in "
            f"[{MIN_QUANT_BITS}, {MAX_QUANT_BITS}], got {bits}"
        )
    return int(bits)


def quantization_levels(bits: int) -> int:
    """``L`` such that levels span ``[-L, L]``: ``2**(bits-1) - 1``."""
    return 2 ** (check_quant_bits(bits) - 1) - 1


def dequantize_levels(levels, scale: float, bits: int) -> np.ndarray:
    """Reconstruct real values from signed levels: ``level * (scale / L)``.

    This is *the* shared reconstruction expression: the compressors use it
    when they build a payload and the codec uses it when it decodes one, so
    the sender's arithmetic and the receiver's arithmetic apply the same
    float operations to the same operands — reconstructions agree bit for
    bit and the wire format cannot perturb trajectories.

    ``scale`` may be an array aligned with ``levels`` (one scale per level's
    row in a columnar batch); the per-element operations are the same.
    """
    step = np.asarray(scale, dtype=float) / quantization_levels(bits)
    return np.asarray(levels, dtype=np.int64).astype(float) * step


def _check_counts(total_params: int, unsent_params: int) -> None:
    if total_params < 0 or unsent_params < 0:
        raise ProtocolError(
            f"counts must be nonnegative, got total={total_params}, "
            f"unsent={unsent_params}"
        )
    if unsent_params > total_params:
        raise ProtocolError(
            f"unsent count {unsent_params} exceeds total parameters {total_params}"
        )


def quantized_frame_bytes(total_params: int, unsent_params: int, bits: int) -> int:
    """Exact QUANTIZED frame size: ``14 + 4K·[K < N] + ceil(K·b / 8)``.

    The 14 fixed bytes are the ``u8`` bit width, a ``u8`` flags byte, the
    ``f64`` scale factor, and the ``u32`` sent count. A dense frame
    (``K == N``, nothing suppressed) omits the index list entirely.
    """
    _check_counts(total_params, unsent_params)
    check_quant_bits(bits)
    sent = total_params - unsent_params
    index_bytes = 0 if unsent_params == 0 else INT_BYTES * sent
    return 2 + FLOAT_BYTES + INT_BYTES + index_bytes + (sent * bits + 7) // 8


def frame_size_bytes(
    total_params: int,
    unsent_params: int,
    frame_format: FrameFormat,
    bits: int | None = None,
) -> int:
    """Exact frame size in bytes for ``N = total_params``, ``M = unsent_params``.

    ``bits`` is required for (and only meaningful to) the QUANTIZED format.
    """
    _check_counts(total_params, unsent_params)
    sent = total_params - unsent_params
    if frame_format is FrameFormat.UNCHANGED_INDEX:
        return INT_BYTES + INT_BYTES * unsent_params + FLOAT_BYTES * sent
    if frame_format is FrameFormat.INDEX_VALUE:
        return (INT_BYTES + FLOAT_BYTES) * sent
    if frame_format is FrameFormat.QUANTIZED:
        if bits is None:
            raise ProtocolError("QUANTIZED frame size requires the bit width")
        return quantized_frame_bytes(total_params, unsent_params, bits)
    raise ProtocolError(f"unknown frame format {frame_format!r}")


def select_frame_format(
    total_params: int, unsent_params: int, bits: int | None = None
) -> FrameFormat:
    """The cheapest frame format for this update.

    Without ``bits`` (full-precision payloads) this is exactly the paper's
    ``N > 2M + 1`` rule between the two Fig. 3 structures, ties going to
    INDEX_VALUE (the paper's "otherwise" branch). With ``bits`` (the update
    carries quantized levels) the QUANTIZED structure joins the comparison
    and wins only when *strictly* smaller, so full-precision accounting is
    never disturbed by the extension.
    """
    _check_counts(total_params, unsent_params)
    if total_params > 2 * unsent_params + 1:
        chosen = FrameFormat.UNCHANGED_INDEX
    else:
        chosen = FrameFormat.INDEX_VALUE
    if bits is not None:
        best = frame_size_bytes(total_params, unsent_params, chosen)
        if quantized_frame_bytes(total_params, unsent_params, bits) < best:
            return FrameFormat.QUANTIZED
    return chosen


@functools.lru_cache(maxsize=1 << 12)
def frame_layout(
    total_params: int, unsent_params: int, bits: int | None = None
) -> tuple[FrameFormat, int]:
    """``(select_frame_format(N, M, bits), its size in bytes)``, cached.

    A pure function of ``(N, M, bits)``: every update of one model shares a
    handful of keys, so the count checks and the format comparison run once
    per key instead of twice per update. Invalid counts raise like
    :func:`select_frame_format` (exceptions are not cached).
    """
    chosen = select_frame_format(total_params, unsent_params, bits)
    return chosen, int(frame_size_bytes(total_params, unsent_params, chosen, bits))


def encoded_update_bytes(
    total_params: int, unsent_params, bits: int | None = None
):
    """Bytes of the best frame for this update (what SNAP actually transmits).

    ``unsent_params`` may be an integer array — one count per frame of a
    round — in which case the sizes come back as an ``int64`` array: the
    cheapest format's size is the minimum of the candidates' sizes, which
    is what :func:`select_frame_format` picks frame by frame.
    """
    if isinstance(unsent_params, np.ndarray):
        unsent = unsent_params.astype(np.int64)
        if unsent.size:
            _check_counts(total_params, int(unsent.min()))
            _check_counts(total_params, int(unsent.max()))
        sent = total_params - unsent
        sizes = np.where(
            total_params > 2 * unsent + 1,
            INT_BYTES + INT_BYTES * unsent + FLOAT_BYTES * sent,
            (INT_BYTES + FLOAT_BYTES) * sent,
        )
        if bits is not None:
            check_quant_bits(bits)
            quantized = (
                2 + FLOAT_BYTES + INT_BYTES
                + np.where(unsent == 0, 0, INT_BYTES * sent)
                + (sent * bits + 7) // 8
            )
            sizes = np.minimum(sizes, quantized)
        return sizes
    return frame_layout(total_params, unsent_params, bits)[1]


def full_vector_bytes(total_params: int) -> int:
    """Bytes of a dense, index-free parameter or gradient vector.

    Used by the schemes that always send everything: PS (full gradients both
    directions), SNO (full parameter vectors), and the server-to-worker leg
    of TernGrad.
    """
    if total_params < 0:
        raise ProtocolError(f"total_params must be >= 0, got {total_params}")
    return FLOAT_BYTES * total_params


def terngrad_vector_bytes(total_params: int) -> int:
    """Bytes of a TernGrad-encoded gradient: 2 bits per parameter plus the scaler.

    Wen et al. encode each gradient component with 2 bits (values in
    {-1, 0, +1}) and ship one full-precision scale factor per vector.
    """
    if total_params < 0:
        raise ProtocolError(f"total_params must be >= 0, got {total_params}")
    payload_bits = 2 * total_params
    payload_bytes = (payload_bits + 7) // 8
    return payload_bytes + FLOAT_BYTES
