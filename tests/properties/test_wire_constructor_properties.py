"""Property: the decoder's private constructor skips only what it proved.

``decode_update`` builds its update with ``ParameterUpdate._from_wire``,
which skips the public constructor's array checks. For every payload the
decoder accepts, in all three frame formats, the public constructor must
accept the very same fields and derive the same frame format, size and
dtypes: anything else would mean the decoder let through a frame the
message type itself refuses.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.exceptions import ProtocolError
from repro.network.codec import decode_update, encode_update
from repro.network.frames import FrameFormat
from repro.network.messages import ParameterUpdate, QuantizationInfo


@st.composite
def encoded_frames(draw):
    """``(payload, format, N)``: a real frame of any format, maybe damaged."""
    total = draw(st.integers(min_value=1, max_value=60))
    n_sent = draw(st.integers(0, total))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    indices = np.sort(rng.choice(total, size=n_sent, replace=False))
    values = rng.normal(size=n_sent)
    quantization = None
    if draw(st.booleans()):
        bits = draw(st.integers(2, 8))
        cap = 2 ** (bits - 1) - 1
        levels = rng.integers(-cap, cap + 1, size=n_sent)
        quantization = QuantizationInfo(bits, 0.5, levels)
        values = levels * (0.5 / cap)
    update = ParameterUpdate(
        sender=1, round_index=2, total_params=total, indices=indices,
        values=values, quantization=quantization,
    )
    payload = bytearray(encode_update(update))
    # Overwrite a few bytes: many damaged frames still parse (value bytes,
    # a level, an index that stays ordered), others exercise the refusals.
    for _ in range(draw(st.integers(0, 3))):
        if payload:
            payload[draw(st.integers(0, len(payload) - 1))] = draw(
                st.integers(0, 255)
            )
    frame_format = draw(
        st.sampled_from([update.frame_format, *FrameFormat])
    )
    return bytes(payload), frame_format, draw(st.sampled_from([total, total + 1]))


@st.composite
def raw_frames(draw):
    """``(payload, format, N)``: arbitrary bytes under any header."""
    payload = draw(st.binary(max_size=120))
    return payload, draw(st.sampled_from(list(FrameFormat))), draw(
        st.integers(0, 40)
    )


@given(encoded_frames() | raw_frames())
@settings(max_examples=600, deadline=None)
def test_every_decoded_update_passes_the_public_constructor(frame):
    payload, frame_format, total = frame
    try:
        decoded = decode_update(payload, frame_format, total, 1, 2)
    except ProtocolError:
        return
    public = ParameterUpdate(
        sender=decoded.sender,
        round_index=decoded.round_index,
        total_params=decoded.total_params,
        indices=decoded.indices,
        values=decoded.values,
        quantization=decoded.quantization,
        additive=decoded.additive,
    )
    assert public.frame_format is decoded.frame_format
    assert public.size_bytes == decoded.size_bytes
    assert type(public.size_bytes) is type(decoded.size_bytes)
    assert decoded.indices.dtype == public.indices.dtype == np.int64
    assert decoded.values.dtype == public.values.dtype == np.float64
    assert decoded.indices.ndim == decoded.values.ndim == 1
    assert decoded.additive is (decoded.quantization is not None)
