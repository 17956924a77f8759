"""Consensus-optimization engines (Section IV-A of the paper).

SNAP inherits the EXTRA iteration of Shi et al.: every edge server updates
its parameters from a weighted average of neighbor parameters at the last two
iterations plus a gradient-correction term (equations (6)/(8)).
:class:`~repro.consensus.extra.ExtraIteration` implements the exact
matrix-form recursion used for theory-facing tests and the Fig. 2 analysis;
the message-level, stale-tolerant per-node form lives in
:mod:`repro.core.server`. Decentralized gradient descent (DGD) is included as
the classical inexact baseline EXTRA improves on.
"""

from repro.consensus.extra import ExtraIteration, ExtraState
from repro.consensus.dgd import DGDIteration
from repro.consensus.gradient_tracking import (
    GradientTrackingIteration,
    GradientTrackingState,
)
from repro.consensus.convergence import (
    ConvergenceDetector,
    consensus_error,
)
from repro.consensus.step_size import extra_max_step_size, safe_step_size
from repro.consensus.theory import (
    SimplificationReport,
    best_delta_bound,
    delta_bound,
    max_step_size_for_linear_rate,
    verify_simplifications,
)

__all__ = [
    "SimplificationReport",
    "best_delta_bound",
    "delta_bound",
    "max_step_size_for_linear_rate",
    "verify_simplifications",
    "ExtraIteration",
    "ExtraState",
    "DGDIteration",
    "GradientTrackingIteration",
    "GradientTrackingState",
    "ConvergenceDetector",
    "consensus_error",
    "extra_max_step_size",
    "safe_step_size",
]
