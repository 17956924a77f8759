"""The frame path checks each index list once: a call count, not a clock.

``decode_update`` proves a frame's index list ascending and in range, then
builds its :class:`ParameterUpdate` through ``ParameterUpdate._from_wire``,
which does not check it again. Building the same update through the public
constructor still runs the check once.
"""

import numpy as np
import pytest

import repro.network.codec as codec
import repro.network.messages as messages
from repro.network.codec import decode_update, encode_update
from repro.network.frames import FrameFormat
from repro.network.messages import ParameterUpdate, QuantizationInfo


@pytest.fixture
def order_checks(monkeypatch):
    """Calls of the index-order check, wherever it is made from."""
    calls = []
    check = messages.strictly_increasing

    def counted(indices):
        calls.append(indices.size)
        return check(indices)

    monkeypatch.setattr(messages, "strictly_increasing", counted)
    monkeypatch.setattr(codec, "strictly_increasing", counted)
    return calls


def _update(kind: FrameFormat) -> ParameterUpdate:
    """An update of ``kind`` whose index list (sent or unchanged) has 3+ entries."""
    total = 25
    if kind is FrameFormat.UNCHANGED_INDEX:
        indices = np.setdiff1d(np.arange(total), [3, 9, 17])
    else:
        indices = np.array([1, 4, 8, 15, 22])
    quantization = None
    values = np.linspace(-1.0, 1.0, indices.size)
    if kind is FrameFormat.QUANTIZED:
        levels = np.array([-3, -1, 0, 2, 3])
        quantization = QuantizationInfo(bits=3, scale=0.75, levels=levels)
        values = levels * (0.75 / 3)
    update = ParameterUpdate(
        sender=2, round_index=5, total_params=total, indices=indices,
        values=values, quantization=quantization,
    )
    assert update.frame_format is kind
    return update


@pytest.mark.parametrize("kind", list(FrameFormat), ids=lambda f: f.name)
def test_decoding_a_frame_checks_its_index_order_once(kind, order_checks):
    update = _update(kind)
    payload = encode_update(update)
    order_checks.clear()
    decoded = decode_update(payload, kind, update.total_params, 2, 5)
    assert len(order_checks) == 1
    np.testing.assert_array_equal(decoded.indices, update.indices)
    assert decoded.frame_format is kind


@pytest.mark.parametrize("kind", list(FrameFormat), ids=lambda f: f.name)
def test_the_public_constructor_still_checks_once(kind, order_checks):
    _update(kind)
    assert len(order_checks) == 1


def test_a_dense_quantized_frame_has_no_index_list_to_check(order_checks):
    levels = np.array([1, -1, 0, 1])
    update = ParameterUpdate(
        sender=0, round_index=1, total_params=4, indices=np.arange(4),
        values=levels * 0.5, quantization=QuantizationInfo(2, 0.5, levels),
    )
    payload = encode_update(update)
    order_checks.clear()
    decode_update(payload, FrameFormat.QUANTIZED, 4, 0, 1)
    assert order_checks == []
