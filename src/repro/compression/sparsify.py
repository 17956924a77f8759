"""Magnitude- and random-sparsification compressors.

Both compress the drift ``current - reference`` down to at most ``k``
coordinates per edge per round; reference tracking feeds everything they
suppress back into the next round's drift, so neither needs an explicit
error accumulator to avoid losing mass (see the package docstring).
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, EdgeState, Payload, PayloadBatch
from repro.exceptions import ConfigurationError


def _check_k(k) -> int:
    if isinstance(k, bool) or int(k) != k or int(k) < 1:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")
    return int(k)


class TopKCompressor(Compressor):
    """Send the ``k`` coordinates with the largest absolute drift.

    Zero-drift coordinates are never sent even when fewer than ``k``
    coordinates have drifted — transmitting a value the receiver already
    holds would waste bytes without changing any state. Ties beyond rank
    ``k`` break by ascending index (stable sort), which is deterministic and
    identical between the per-edge and batched paths.
    """

    name = "topk"
    batched = True

    def __init__(self, k: int = 16):
        self.k = _check_k(k)

    def _select(self, magnitude: np.ndarray) -> np.ndarray:
        ranked = np.argsort(-magnitude, kind="stable")[: self.k]
        chosen = ranked[magnitude[ranked] > 0.0]
        return np.sort(chosen)

    def compress(
        self, current: np.ndarray, state: EdgeState, ctx: dict
    ) -> Payload:
        current = np.asarray(current, dtype=float)
        indices = self._select(np.abs(current - state.reference))
        return Payload(indices=indices, values=current[indices], meta={})

    def compress_batch(
        self,
        currents: np.ndarray,
        references: np.ndarray,
        states=None,
        ctxs=None,
    ) -> PayloadBatch:
        magnitudes = np.abs(currents - references)
        # Batched stable argsort along axis 1 equals the per-row call on
        # C-contiguous data, so the picks match compress() bitwise.
        ranked = np.argsort(-magnitudes, kind="stable")[:, : self.k]
        drifted = np.take_along_axis(magnitudes, ranked, axis=1) > 0.0
        # Sorting with the zero-drift picks pushed past the last real index
        # leaves each row's sent indices ascending in its leading columns.
        n_params = currents.shape[1]
        indices = np.sort(np.where(drifted, ranked, n_params), axis=1)
        indices[indices == n_params] = 0
        return PayloadBatch(
            indices,
            np.take_along_axis(currents, indices, axis=1),
            drifted.sum(axis=1),
        )


class RandomKCompressor(Compressor):
    """Send ``k`` uniformly random coordinates per edge per round.

    Draws come from the edge's keyed generator
    (:func:`repro.compression.base.edge_rng`), one ``choice`` call per
    compress, so the sequence depends only on ``(seed, edge, round order)``
    and both engines replay it identically. Selected coordinates are sent
    even when their drift is zero: the draw *is* the protocol, and skipping
    coordinates would desynchronize the count the byte accounting is built
    on.
    """

    name = "randomk"
    uses_rng = True

    def __init__(self, k: int = 16):
        self.k = _check_k(k)

    def compress(
        self, current: np.ndarray, state: EdgeState, ctx: dict
    ) -> Payload:
        current = np.asarray(current, dtype=float)
        count = min(self.k, current.size)
        indices = np.sort(
            state.rng.choice(current.size, size=count, replace=False)
        ).astype(np.int64)
        return Payload(indices=indices, values=current[indices], meta={})
