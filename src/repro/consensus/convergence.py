"""Convergence detection and consensus metrics.

The paper's figures report "iterations required to converge". We detect
convergence from two observable signals:

* **consensus error** — how far the per-server parameter rows are from their
  mean (constraint (3) requires all rows identical at the limit);
* **loss plateau** — the mean local loss has stopped improving over a
  trailing window.

Both must hold simultaneously. Schemes without a consensus dimension
(centralized, parameter server) feed a zero consensus error and the detector
reduces to the plateau test, keeping iteration counts comparable across
schemes — which is exactly how the paper compares them in Figs. 5/6/9.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.types import ParamMatrix
from repro.utils.validation import check_non_negative, check_positive_int


def consensus_error(stacked: ParamMatrix) -> float:
    """Root-mean-square distance of the rows from their mean.

    Zero iff all servers hold identical parameters (constraint (3)).
    Normalized by ``sqrt(N * P)`` so the value is comparable across network
    sizes and model dimensions.
    """
    stacked = np.asarray(stacked, dtype=float)
    deviation = stacked - stacked.mean(axis=0, keepdims=True)
    return float(np.sqrt(np.mean(deviation**2)))


class ConvergenceDetector:
    """Streaming convergence test over (loss, consensus-error) observations.

    Parameters
    ----------
    loss_window:
        Number of trailing iterations over which the loss must be flat.
    relative_loss_tolerance:
        Convergence requires the loss range within the window to be at most
        this fraction of the window's mean absolute loss.
    consensus_tolerance:
        Maximum admissible consensus error.
    min_iterations:
        Never declare convergence before this many observations (EXTRA's
        first iterations move fast and can look momentarily flat).
    target_loss:
        When set, the plateau test is replaced by a target test: converged
        as soon as the observed loss is at or below this value (and the
        consensus tolerance holds). Target-based counting is what the
        cross-scheme comparison figures use — a scheme stalled by noise or
        stale views plateaus *above* the target and is correctly reported
        as slow, where a plateau test would be fooled into declaring early
        convergence at a worse loss.
    """

    def __init__(
        self,
        loss_window: int = 5,
        relative_loss_tolerance: float = 1e-3,
        consensus_tolerance: float = 1e-2,
        min_iterations: int = 5,
        target_loss: float | None = None,
    ):
        self.loss_window = check_positive_int("loss_window", loss_window)
        self.relative_loss_tolerance = check_non_negative(
            "relative_loss_tolerance", relative_loss_tolerance
        )
        self.consensus_tolerance = check_non_negative(
            "consensus_tolerance", consensus_tolerance
        )
        self.min_iterations = check_positive_int("min_iterations", min_iterations)
        self.target_loss = None if target_loss is None else float(target_loss)
        self._losses: deque[float] = deque(maxlen=self.loss_window)
        self._count = 0
        self._converged_at: int | None = None

    def observe(self, loss: float, consensus: float = 0.0) -> bool:
        """Feed one iteration's (mean loss, consensus error); return convergence.

        Once convergence is declared it stays declared; ``converged_at``
        records the first converged iteration (1-based).
        """
        self._count += 1
        self._losses.append(float(loss))
        if self._converged_at is not None:
            return True
        if consensus > self.consensus_tolerance:
            return False
        if self.target_loss is not None:
            if loss <= self.target_loss:
                self._converged_at = self._count
                return True
            return False
        if self._count < self.min_iterations:
            return False
        if len(self._losses) < self.loss_window:
            return False
        window = np.array(self._losses)
        scale = max(float(np.mean(np.abs(window))), 1e-12)
        if float(window.max() - window.min()) <= self.relative_loss_tolerance * scale:
            self._converged_at = self._count
            return True
        return False

    @property
    def converged(self) -> bool:
        """Whether convergence has been declared."""
        return self._converged_at is not None

    @property
    def converged_at(self) -> int | None:
        """1-based iteration index at which convergence was first declared."""
        return self._converged_at

    def reset(self) -> None:
        """Clear all state for reuse."""
        self._losses.clear()
        self._count = 0
        self._converged_at = None
