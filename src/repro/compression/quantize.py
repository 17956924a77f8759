"""Quantizing compressors: uniform b-bit levels and stochastic ternary.

Both quantize the drift ``current - reference`` and ship signed integer
levels plus one scale factor; the network layer's QUANTIZED frame carries
them at ``bits`` bits per level when that beats the Fig. 3 formats. The
payload's ``values`` are nevertheless *absolute* parameters —
``reference + dequantized_level`` — computed with the exact expression the
receiving codec uses (:func:`repro.network.frames.dequantize_levels`), so
the simulator's overwrite semantics and the wire's additive decode agree
bit for bit.

Reconstruction error (the gap between the drift and its dequantized level)
is never lost: the reference only advances to the *reconstructed* values,
so the reconstruction error stays in the next round's drift. That is error
feedback by construction — no separate accumulator needed.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, EdgeState, Payload, PayloadBatch
from repro.exceptions import ProtocolError
from repro.network.frames import (
    check_quant_bits,
    dequantize_levels,
    quantization_levels,
)
from repro.network.messages import QuantizationInfo


def ternarize(gradient: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Stochastic ternary quantization of a gradient vector.

    Returns a vector whose entries are in ``{-s, 0, +s}`` with
    ``s = max|gradient|`` and ``P[keep component k] = |g_k| / s`` — an
    unbiased estimator of ``gradient``. The zero vector passes through
    unchanged.
    """
    gradient = np.asarray(gradient, dtype=float)
    scale = float(np.max(np.abs(gradient))) if gradient.size else 0.0
    if scale == 0.0:
        return gradient.copy()
    keep_probability = np.abs(gradient) / scale
    kept = rng.random(gradient.shape) < keep_probability
    return scale * np.sign(gradient) * kept


class UniformQuantizer(Compressor):
    """Deterministic b-bit uniform quantization of the drift.

    ``level = rint(drift / scale * L)`` with ``scale = max|drift|`` and
    ``L = 2**(bits-1) - 1``; zero levels are dropped from the payload (the
    receiver's value would not change). A zero-drift edge sends an empty
    frame.
    """

    name = "uniform"
    batched = True

    def __init__(self, bits: int = 4):
        self.bits = check_quant_bits(bits)

    def compress(
        self, current: np.ndarray, state: EdgeState, ctx: dict
    ) -> Payload:
        current = np.asarray(current, dtype=float)
        reference = np.asarray(state.reference, dtype=float)
        drift = current - reference
        scale = float(np.abs(drift).max()) if drift.size else 0.0
        if scale == 0.0:
            return _empty_payload()
        cap = quantization_levels(self.bits)
        levels = np.rint(drift / scale * cap).astype(np.int64)
        return _quantized_payload(reference, levels, scale, self.bits)

    def compress_batch(
        self,
        currents: np.ndarray,
        references: np.ndarray,
        states=None,
        ctxs=None,
    ) -> PayloadBatch:
        n_rows = len(currents)
        drifts = currents - references
        scales = np.abs(drifts).max(axis=1) if drifts.size else np.zeros(n_rows)
        if not np.all(np.isfinite(scales)):
            raise ProtocolError("quantization scale must be finite")
        # Guard the zero rows out of the division; their levels are all zero
        # anyway, and the expression for live rows matches compress() term
        # for term (same operand order), so payloads are bitwise identical.
        safe = np.where(scales > 0.0, scales, 1.0)
        cap = quantization_levels(self.bits)
        levels = np.rint(drifts / safe[:, None] * cap).astype(np.int64)
        # Compact each row's nonzero levels into its leading columns.
        nonzero = levels != 0
        n_sent = nonzero.sum(axis=1)
        rows, cols = np.nonzero(nonzero)
        slots = np.arange(rows.size) - np.repeat(np.cumsum(n_sent) - n_sent, n_sent)
        shape = (n_rows, int(n_sent.max()) if n_rows else 0)
        indices = np.zeros(shape, dtype=np.int64)
        kept = np.zeros(shape, dtype=np.int64)
        values = np.zeros(shape)
        picked = levels[rows, cols]
        indices[rows, slots] = cols
        kept[rows, slots] = picked
        values[rows, slots] = references[rows, cols] + dequantize_levels(
            picked, scales[rows], self.bits
        )
        return PayloadBatch(
            indices, values, n_sent, bits=self.bits, scales=scales, levels=kept
        )


class TernGradCompressor(Compressor):
    """TernGrad's stochastic ternary encoding applied to the drift.

    The canonical :func:`ternarize` implementation lives here (as
    :meth:`TernGradCompressor.ternarize`); the parameter-server baseline in
    :mod:`repro.baselines.terngrad` imports it rather than keeping its own
    copy. As a mesh compressor it ships levels in ``{-1, +1}`` at the kept
    coordinates under the 2-bit QUANTIZED frame; the baseline keeps its own
    whole-vector byte accounting (``terngrad_vector_bytes``) because the
    parameter-server push is never sparse.
    """

    name = "terngrad"
    uses_rng = True
    #: Ternary levels occupy 2 bits on the wire; ``L = 2**(2-1) - 1 = 1``
    #: makes ``dequantize_levels(level, scale, 2) = level * scale`` — exactly
    #: the ``±scale`` values TernGrad transmits.
    bits = 2

    ternarize = staticmethod(ternarize)

    def compress(
        self, current: np.ndarray, state: EdgeState, ctx: dict
    ) -> Payload:
        current = np.asarray(current, dtype=float)
        reference = np.asarray(state.reference, dtype=float)
        drift = current - reference
        encoded = ternarize(drift, state.rng)
        nonzero = np.flatnonzero(encoded)
        if not nonzero.size:
            return _empty_payload()
        scale = float(np.abs(drift).max())
        levels = np.sign(encoded[nonzero]).astype(np.int64)
        return Payload(
            indices=nonzero.astype(np.int64),
            values=reference[nonzero] + encoded[nonzero],
            meta={
                "quantization": QuantizationInfo(
                    bits=self.bits, scale=scale, levels=levels
                )
            },
        )


def _empty_payload() -> Payload:
    return Payload(
        indices=np.empty(0, dtype=np.int64),
        values=np.empty(0, dtype=float),
        meta={},
    )


def _quantized_payload(
    reference: np.ndarray, levels: np.ndarray, scale: float, bits: int
) -> Payload:
    """Payload carrying the nonzero levels as absolute reconstructed values."""
    nonzero = np.flatnonzero(levels)
    if not nonzero.size:
        return _empty_payload()
    kept = levels[nonzero]
    return Payload(
        indices=nonzero.astype(np.int64),
        values=reference[nonzero] + dequantize_levels(kept, scale, bits),
        meta={
            "quantization": QuantizationInfo(bits=bits, scale=scale, levels=kept)
        },
    )
