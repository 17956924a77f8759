"""Magnitude- and random-sparsification compressors.

Both compress the drift ``current - reference`` down to at most ``k``
coordinates per edge per round; reference tracking feeds everything they
suppress back into the next round's drift, so neither needs an explicit
error accumulator to avoid losing mass (see the package docstring).
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import (
    Compressor,
    EdgeState,
    Payload,
    PayloadBatch,
    row_reduce,
)
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
        # The stable argsort of compress() by selection instead of a sort
        # (docs/PERFORMANCE.md identity 21): a row's top k under -|drift|
        # are the entries strictly below its k-th smallest key, then the
        # lowest-indexed entries equal to it until k are taken. NaN keys
        # sort last and compare false, so they are never kept; a NaN k-th
        # key (fewer than k non-NaN) keeps every non-NaN, and zero drift is
        # then dropped, so the bound is capped at zero by ``fmin``.
        keys = np.abs(currents - references)
        np.negative(keys, out=keys)
        n_rows, n_params = keys.shape
        width = min(self.k, n_params)
        if self.k < n_params:
            kth = np.partition(keys, self.k - 1, axis=1)[:, self.k - 1 : self.k]
            bound = np.fmin(kth, 0.0)
        else:
            bound = np.zeros((n_rows, 1))
        keep = keys < bound
        tied = keys == bound
        tied &= bound < 0.0
        room = self.k - row_reduce(np.add, keep, dtype=np.int64)
        over = np.flatnonzero(row_reduce(np.add, tied, dtype=np.int64) > room)
        keep |= tied
        # Only rows with more ties than room rank them, by index.
        ranked = np.cumsum(tied[over], axis=1) <= room[over, None]
        keep[over] &= ranked | ~tied[over]
        n_sent = row_reduce(np.add, keep, dtype=np.int64)
        # Each row's kept indices, ascending, into its leading columns;
        # the padding is index 0.
        flat = np.flatnonzero(keep)
        rows = flat // n_params
        starts = np.cumsum(n_sent) - n_sent
        indices = np.zeros((n_rows, width), dtype=np.int64)
        indices[rows, np.arange(flat.size) - starts[rows]] = flat - rows * n_params
        return PayloadBatch(
            indices, np.take_along_axis(currents, indices, axis=1), n_sent
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
