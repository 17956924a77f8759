"""Neighbor-set planning (Section IV-D of the paper).

When neighbor sets are not given by physical connectivity, the paper
suggests: "we can assume that every edge server is neighboring with all
other edge servers and optimize the weight matrix. If the weight between two
edge servers is less than a predefined threshold, we can remove them from
each other's neighbor set" — pruning also reduces communication cost, since
a zero weight means the pair never exchanges parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.generators import complete_topology
from repro.topology.graph import Topology
from repro.types import WeightMatrix
from repro.utils.validation import check_non_negative
from repro.weights.adaptive import prune_links
from repro.weights.optimizer import WeightOptimizationResult, optimize_weight_matrix
from repro.weights.spectrum import MixingReport, analyze_weight_matrix
from repro.weights.validation import check_weight_matrix


@dataclass(frozen=True)
class NeighborPlan:
    """Outcome of the plan: pruned topology plus a re-optimized weight matrix.

    Attributes
    ----------
    topology:
        The pruned neighbor graph (edges whose optimized weight met the
        threshold).
    weight_matrix:
        A weight matrix re-optimized on the pruned support, ready for
        :class:`~repro.core.SNAPTrainer`.
    report:
        Spectral summary of ``weight_matrix``.
    dense_report:
        Spectral summary of the unpruned (complete-support) optimum, for
        judging how much mixing quality the pruning gave up.
    kept_edges:
        Edges retained out of the ``n (n-1) / 2`` complete-graph candidates.
    """

    topology: Topology
    weight_matrix: WeightMatrix
    report: MixingReport
    dense_report: MixingReport
    kept_edges: int


def plan_neighbor_sets(
    n_nodes: int,
    weight_threshold: float = 0.02,
    iterations: int = 200,
    candidate_topology: Topology | None = None,
) -> NeighborPlan:
    """Derive neighbor sets by optimize-then-prune.

    Parameters
    ----------
    n_nodes:
        Number of edge servers.
    weight_threshold:
        Edges whose optimized mixing weight falls below this are dropped
        from both endpoints' neighbor sets.
    iterations:
        Subgradient iterations for each optimization pass.
    candidate_topology:
        The candidate link set to optimize over. ``None`` means all-to-all,
        the paper's default assumption. Note that on a fully symmetric
        candidate set the optimum spreads weight uniformly (every edge gets
        ~1/n), so pruning is all-or-nothing there; a physically constrained
        candidate set (e.g. links within radio range) gives the weight
        variation that makes pruning selective.

    Raises
    ------
    TopologyError
        If pruning at the requested threshold would disconnect the network
        (consensus would become impossible); lower the threshold.
    """
    if n_nodes < 2:
        raise TopologyError(f"need at least 2 servers, got {n_nodes}")
    check_non_negative("weight_threshold", weight_threshold)

    if candidate_topology is None:
        dense_topology = complete_topology(n_nodes)
    else:
        if candidate_topology.n_nodes != n_nodes:
            raise TopologyError(
                f"candidate topology has {candidate_topology.n_nodes} nodes, "
                f"expected {n_nodes}"
            )
        if not candidate_topology.is_connected():
            raise TopologyError("candidate topology must be connected")
        dense_topology = candidate_topology
    dense = optimize_weight_matrix(dense_topology, iterations=iterations)

    # The online controller's rule (connectivity-guarded): it keeps a link
    # below the threshold only when the links at or above it are disconnected.
    pruned, _ = prune_links(dense_topology, dense.matrix, weight_threshold)
    if any(dense.matrix[u, v] < weight_threshold for u, v in pruned.edges):
        raise TopologyError(
            f"pruning at weight_threshold={weight_threshold} disconnects the "
            "network; choose a smaller threshold"
        )

    refit: WeightOptimizationResult = optimize_weight_matrix(
        pruned, iterations=iterations
    )
    check_weight_matrix(refit.matrix, pruned)
    return NeighborPlan(
        topology=pruned,
        weight_matrix=refit.matrix,
        report=refit.report,
        dense_report=analyze_weight_matrix(dense.matrix),
        kept_edges=len(pruned.edges),
    )
