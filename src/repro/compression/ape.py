"""SNAP's own selection policies expressed as compressors.

One class covers all three of the paper's schemes — they differ only in the
threshold fed to :func:`repro.core.selection.select_parameters`:

* **APE** (``kind="ape"``) — the threshold follows one
  :class:`~repro.core.ape.APESchedule` per node, in relative units of the
  node's mean absolute parameter value; stage boundaries restart the EXTRA
  recursion (Algorithm 1).
* **SNAP-0** (``kind="changed_only"``) — threshold 0: every changed
  coordinate is sent, exact ties are suppressed.
* **SNO** (``kind="dense"``) — no selection at all; the full vector goes out
  every round.

The arithmetic here reproduces the pre-subsystem trainer expressions
operation for operation: the same scale (``max(mean|x|, 1e-8)``), the same product order
(``relative_threshold * scale``), the same relative suppressed statistic
(``suppressed_max / scale``, the maximum taken over the edges a message was
built for) — which is what keeps default runs bit-for-bit identical to the
historical implementation (pinned by
``tests/compression/test_regression_pin.py``). The batch methods are that
arithmetic on whole-round arrays, rows in place of edges.
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
from repro.core.ape import APESchedule
from repro.core.selection import select_parameters


class _RoundContext:
    """One round's per-node columns; ``ctx[sources]`` aligns them with edge rows.

    ``scale``, ``threshold`` and ``suppressed_max`` hold one entry per node
    and are shared by every row view, so the suppressed maxima the batch
    kernel folds in through a view are what the round's close reads.
    """

    __slots__ = ("scale", "threshold", "suppressed_max", "sources")

    def __init__(self, scale, threshold, suppressed_max, sources=None):
        self.scale = scale
        self.threshold = threshold
        self.suppressed_max = suppressed_max
        self.sources = sources

    def __getitem__(self, sources: np.ndarray) -> "_RoundContext":
        return _RoundContext(
            self.scale, self.threshold, self.suppressed_max, sources
        )


class APECompressor(Compressor):
    """Threshold selection against the per-edge reference (SNAP / SNAP-0 / SNO).

    The per-node methods serve the engines that work one server at a time;
    the ``*_batch`` methods are the same arithmetic on whole-round arrays,
    with Algorithm 1 advanced on the columnar
    :class:`~repro.core.ape.APEScheduleBank` the schedule is a row of.

    Parameters
    ----------
    schedule:
        The node's :class:`~repro.core.ape.APESchedule`, or ``None`` for a
        permanent zero threshold (SNAP-0).
    dense:
        Skip selection entirely and always emit the full vector (SNO).
    """

    name = "ape"
    batched = True

    def __init__(self, schedule: APESchedule | None = None, dense: bool = False):
        if dense and schedule is not None:
            raise ValueError("dense selection does not take a schedule")
        self.schedule = schedule
        self.dense = bool(dense)

    def begin_round(self, params: np.ndarray, round_index: int) -> dict:
        if self.dense:
            return {}
        magnitudes = np.abs(params)
        # np.mean's own sum and division, without its Python wrapper
        # (docs/PERFORMANCE.md identity 17).
        scale = max(float(np.add.reduce(magnitudes) / magnitudes.size), 1e-8)
        relative = self.schedule.send_threshold if self.schedule is not None else 0.0
        return {
            "scale": scale,
            "threshold": relative * scale,
            "suppressed_max": 0.0,
        }

    def compress(
        self, current: np.ndarray, state: EdgeState, ctx: dict
    ) -> Payload:
        if self.dense:
            values = np.asarray(current, dtype=float)
            return Payload(
                indices=np.arange(values.size, dtype=np.int64),
                values=values,
                meta={},
            )
        selection = select_parameters(current, state.reference, ctx["threshold"])
        ctx["suppressed_max"] = max(ctx["suppressed_max"], selection.suppressed_max)
        return Payload(
            indices=selection.indices, values=selection.values, meta={}
        )

    def end_round(self, ctx: dict) -> bool:
        if self.schedule is None:
            return False
        stage_before = self.schedule.stage
        self.schedule.record_round(ctx["suppressed_max"] / ctx["scale"])
        return self.schedule.stage != stage_before

    # -- the same round, every node and edge at once ---------------------------------

    def begin_round_batch(
        self, params: np.ndarray, nodes: np.ndarray, round_index: int, peers
    ) -> _RoundContext:
        if self.dense:
            return _RoundContext(None, None, None)
        scale = np.maximum(np.abs(params).mean(axis=1), 1e-8)
        if self.schedule is not None:
            relative = self.schedule.bank.send_thresholds()
        else:
            relative = np.zeros(len(params))
        return _RoundContext(scale, relative * scale, np.zeros(len(params)))

    def compress_batch(
        self,
        currents: np.ndarray,
        references: np.ndarray,
        states=None,
        ctxs=None,
    ) -> PayloadBatch:
        if self.dense:
            return PayloadBatch.from_mask(currents)
        deltas = currents - references
        np.abs(deltas, out=deltas)
        send_mask = deltas > ctxs.threshold[ctxs.sources][:, None]
        if self.schedule is not None:
            # Zeroing the sent coordinates and reducing is bitwise equal to
            # np.where(send_mask, 0.0, deltas).max(axis=1), without the copy.
            np.putmask(deltas, send_mask, 0.0)
            np.maximum.at(
                ctxs.suppressed_max, ctxs.sources, row_reduce(np.maximum, deltas)
            )
        return PayloadBatch.from_mask(currents, send_mask)

    def end_round_batch(
        self, ctxs: _RoundContext, nodes: np.ndarray, peers
    ) -> np.ndarray:
        if self.schedule is None:
            return np.empty(0, dtype=np.int64)
        return self.schedule.bank.record_rounds(
            nodes, ctxs.suppressed_max[nodes] / ctxs.scale[nodes]
        )
