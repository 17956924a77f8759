"""Network substrate: frames, messages, cost accounting, link timing.

The paper defines communication cost as flow size times physical hop count
(Section II-B) and measures "the number of bytes written into the socket"
(Section V-A). This package reproduces that accounting exactly: the two
candidate frame structures of Fig. 3 with their byte formulas, and a cost
tracker that weights every flow by its hop count. Which frames are lost or
damaged on the way (the straggler model of Fig. 9) is decided by the
:class:`~repro.faults.FaultPlan`, not here.
"""

from repro.network.frames import (
    FLOAT_BYTES,
    INT_BYTES,
    FrameFormat,
    dequantize_levels,
    frame_size_bytes,
    full_vector_bytes,
    quantized_frame_bytes,
    select_frame_format,
)
from repro.network.codec import decode_update, encode_update
from repro.network.messages import ParameterUpdate, QuantizationInfo
from repro.network.cost import CommunicationCostTracker
from repro.network.timing import GIGABIT_PER_SECOND, LinkTimingModel

__all__ = [
    "decode_update",
    "encode_update",
    "FLOAT_BYTES",
    "INT_BYTES",
    "FrameFormat",
    "dequantize_levels",
    "frame_size_bytes",
    "full_vector_bytes",
    "quantized_frame_bytes",
    "select_frame_format",
    "ParameterUpdate",
    "QuantizationInfo",
    "CommunicationCostTracker",
    "GIGABIT_PER_SECOND",
    "LinkTimingModel",
]
