"""Pluggable update compression for the SNAP round loop.

One protocol (:class:`~repro.compression.base.Compressor`) unifies the
paper's APE-thresholded selection with the broader gradient-compression
family — Top-k / Random-k sparsification, b-bit uniform quantization,
TernGrad — behind exact per-frame byte accounting, so any of them can run
through the trainer, both simulation engines, and the TCP testbed
unchanged. See ``docs/COMPRESSION.md`` for the protocol contract and each
scheme's wire arithmetic.
"""

# Import order is load-bearing: importing .ape pulls in repro.core, whose
# trainer imports EdgeState/build_compressor/payload_to_update back from this
# package — those names must already be bound when that happens.
from repro.compression.base import (
    Compressor,
    EdgeState,
    Payload,
    edge_rng,
    payload_to_update,
)
from repro.compression.spec import PRESET_KINDS, CompressorSpec, build_compressor
from repro.compression.ape import APECompressor
from repro.compression.quantize import (
    TernGradCompressor,
    UniformQuantizer,
    ternarize,
)
from repro.compression.sparsify import RandomKCompressor, TopKCompressor

__all__ = [
    "APECompressor",
    "Compressor",
    "CompressorSpec",
    "EdgeState",
    "PRESET_KINDS",
    "Payload",
    "RandomKCompressor",
    "TernGradCompressor",
    "TopKCompressor",
    "UniformQuantizer",
    "build_compressor",
    "edge_rng",
    "payload_to_update",
    "ternarize",
]
