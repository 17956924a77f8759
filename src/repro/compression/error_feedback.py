"""Explicit error-feedback wrapper around any compressor.

The subsystem's reference tracking already *is* error feedback: the
reference only advances to what the receiver confirmed holding, so the
residual ``current - reference`` — everything suppressed, quantized away,
or dropped by the network — is exactly what the next round's compressor
sees as drift. Wrapping a compressor in :class:`ErrorFeedback` therefore
does not change a single transmitted byte or parameter trajectory
(asserted by ``tests/compression/test_error_feedback.py``); what it adds is
the *materialized* accumulator on each edge state, maintained under the
classic EF recurrence

    e_{t+1} = (x_t + e_t ... ) - sent_t        ≡   current - reference

so telemetry, debugging, and the APE↔EF correspondence described in
``docs/COMPRESSION.md`` can read the residual directly instead of
re-deriving it from link state.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Compressor, EdgeState, Payload, PayloadBatch


class ErrorFeedback(Compressor):
    """Decorates ``inner`` with an explicit per-edge residual accumulator."""

    name = "ef"
    #: The residual rows live on the edge states.
    keeps_edge_state = True

    def __init__(self, inner: Compressor):
        self.inner = inner

    @property
    def uses_rng(self) -> bool:  # type: ignore[override]
        return self.inner.uses_rng

    @property
    def batched(self) -> bool:  # type: ignore[override]
        return self.inner.batched

    def make_edge_state(
        self,
        n_params: int,
        source: int,
        destination: int,
        seed: int | None,
    ) -> EdgeState:
        state = self.inner.make_edge_state(n_params, source, destination, seed)
        state.residual = np.zeros(n_params)
        return state

    def begin_round(self, params: np.ndarray, round_index: int) -> dict:
        return self.inner.begin_round(params, round_index)

    def compress(
        self, current: np.ndarray, state: EdgeState, ctx: dict
    ) -> Payload:
        payload = self.inner.compress(current, state, ctx)
        state.pending["ef_current"] = np.asarray(current, dtype=float).copy()
        return payload

    def compress_batch(
        self,
        currents: np.ndarray,
        references: np.ndarray,
        states=None,
        ctxs=None,
    ) -> PayloadBatch:
        if self.batched:
            return self.inner.compress_batch(currents, references, states, ctxs)
        return super().compress_batch(currents, references, states, ctxs)

    def settle_batch(
        self,
        batch: PayloadBatch,
        delivered: np.ndarray,
        currents: np.ndarray,
        references: np.ndarray,
        states,
    ) -> np.ndarray | None:
        if not self.batched:
            return super().settle_batch(
                batch, delivered, currents, references, states
            )
        self.inner.settle_batch(batch, delivered, currents, references, states)
        # The same expression as _settle, for every row at once.
        return currents - references

    def _settle(self, state: EdgeState) -> None:
        # By the time either hook runs, state.reference reflects the round's
        # outcome (advanced in place on delivery, untouched on a drop), so
        # one expression covers both branches of the EF recurrence.
        # Written in place: the vectorized engine keeps every edge's residual
        # as one row of a matrix and hands the states views of it.
        current = state.pending.pop("ef_current", None)
        if current is not None and state.reference is not None:
            np.subtract(current, state.reference, out=state.residual)

    def payload_delivered(self, payload: Payload, state: EdgeState) -> None:
        self._settle(state)
        self.inner.payload_delivered(payload, state)

    def payload_dropped(self, payload: Payload, state: EdgeState) -> None:
        self._settle(state)
        self.inner.payload_dropped(payload, state)

    def end_round(self, ctx: dict) -> bool:
        return self.inner.end_round(ctx)

    def __repr__(self) -> str:
        return f"ErrorFeedback({self.inner!r})"
