"""Weight-matrix construction and optimization (Section IV-B of the paper).

The EXTRA averaging step mixes neighbor parameters through a symmetric doubly
stochastic matrix ``W`` whose support is restricted to the topology's edges.
The paper's contribution is to *optimize* ``W`` instead of using a predefined
one: problem (23) minimizes the largest eigenvalue below one
(:math:`\\bar\\lambda_{max}`), problem (22) maximizes the smallest eigenvalue
(:math:`\\lambda_{min}`), and SNAP keeps whichever of the two optima yields
the better convergence-rate score.

This package provides the Metropolis–Hastings initial matrix (eq. 24), the
edge-Laplacian parametrization that makes the feasible set a simple polytope,
projected-subgradient solvers for both problems, and the rate-score selection.

:mod:`repro.weights.adaptive` extends the offline optimization into an online
runtime: link pruning by optimized weight, warm-started re-solves, and a
joint (topology, compressor) bytes budget.
"""

from repro.weights.adaptive import (
    TopologyController,
    TopologySwap,
    prune_links,
    readd_links,
)
from repro.weights.construction import (
    metropolis_weights,
    tiered_metropolis_weights,
)
from repro.weights.parametrization import EdgeParametrization
from repro.weights.spectrum import MixingReport, analyze_weight_matrix
from repro.weights.optimizer import (
    WeightOptimizationResult,
    maximize_smallest_eigenvalue,
    minimize_second_eigenvalue,
    optimize_weight_matrix,
)
from repro.weights.planning import NeighborPlan, plan_neighbor_sets
from repro.weights.validation import check_weight_matrix

__all__ = [
    "NeighborPlan",
    "plan_neighbor_sets",
    "metropolis_weights",
    "tiered_metropolis_weights",
    "EdgeParametrization",
    "MixingReport",
    "analyze_weight_matrix",
    "WeightOptimizationResult",
    "maximize_smallest_eigenvalue",
    "minimize_second_eigenvalue",
    "optimize_weight_matrix",
    "check_weight_matrix",
    "TopologyController",
    "TopologySwap",
    "prune_links",
    "readd_links",
]
