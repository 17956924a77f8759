"""Predefined (non-optimized) weight-matrix constructions.

These are the baselines the paper's weight-matrix optimization is compared
against in Fig. 5. :func:`metropolis_weights` is exactly equation (24): the
Metropolis–Hastings rule with a small :math:`\\epsilon` in the denominator,
which the paper uses both as the non-optimized baseline and as the feasible
starting point for the interior-point (here: projected subgradient) solver.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from repro.exceptions import TopologyError
from repro.topology.graph import Topology
from repro.types import WeightMatrix
from repro.utils.validation import check_non_negative


def metropolis_weights(
    topology: Topology, epsilon: float = 0.01, sparse: bool = False
) -> WeightMatrix:
    """Metropolis–Hastings weights, equation (24) of the paper.

    .. math::

        w_{ij} = \\begin{cases}
            1 / (\\max\\{deg(i), deg(j)\\} + \\epsilon) & j \\in B_i \\\\
            0 & j \\notin B_i, i \\neq j \\\\
            1 - \\sum_{k \\neq i} w_{ik} & i = j
        \\end{cases}

    The resulting matrix is symmetric, doubly stochastic, respects the
    topology's sparsity pattern, and (thanks to ``epsilon > 0``) has strictly
    positive diagonal entries, which keeps it in the interior of the feasible
    set — exactly what the paper needs to seed its solver.

    With ``sparse=True`` the same matrix is built directly in CSR form —
    entrywise **bit-identical** to the dense construction (each entry and
    each diagonal row-sum is computed by the exact same float expressions) —
    with O(nodes + edges) memory instead of O(n²). This is the mixing matrix
    for N≥4096-scale runs.
    """
    check_non_negative("epsilon", epsilon)
    n = topology.n_nodes
    if sparse:
        return _metropolis_sparse(topology, epsilon)
    matrix = np.zeros((n, n), dtype=float)
    for u, v in topology.edges:
        weight = 1.0 / (max(topology.degree(u), topology.degree(v)) + epsilon)
        matrix[u, v] = weight
        matrix[v, u] = weight
    _fill_diagonal_to_stochastic(matrix)
    return matrix


def _metropolis_sparse(topology: Topology, epsilon: float) -> csr_matrix:
    """CSR Metropolis weights, bitwise equal to the dense construction.

    Each row is materialized densely one at a time (O(n) scratch) so the
    diagonal entry ``1 - row.sum()`` reuses numpy's pairwise row-sum over
    the full n-length row — summing only the nonzeros would associate the
    additions differently and could differ in the last bit from the dense
    path's ``matrix.sum(axis=1)``.
    """
    n = topology.n_nodes
    degree = [topology.degree(node) for node in range(n)]
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    row = np.zeros(n, dtype=float)
    for node in range(n):
        neighbors = topology.neighbors(node)
        for neighbor in neighbors:
            row[neighbor] = 1.0 / (max(degree[node], degree[neighbor]) + epsilon)
        row_sum = row.sum()
        if row_sum > 1.0 + 1e-9:
            raise TopologyError(
                "off-diagonal weights sum above 1 on some row; the construction "
                "cannot produce a doubly stochastic matrix"
            )
        row[node] = 1.0 - row_sum
        nonzero = np.flatnonzero(row)
        indices.extend(nonzero.tolist())
        data.extend(row[nonzero].tolist())
        indptr.append(len(indices))
        row[nonzero] = 0.0
    return csr_matrix(
        (
            np.asarray(data, dtype=float),
            np.asarray(indices, dtype=np.int64),
            np.asarray(indptr, dtype=np.int64),
        ),
        shape=(n, n),
    )


def tiered_metropolis_weights(
    topology: Topology, uplink_damping: float = 0.5, epsilon: float = 0.01
) -> WeightMatrix:
    """Metropolis weights with damped cross-tier (uplink/downlink) links.

    Hierarchical edge→aggregator→cloud deployments pay more per byte on the
    backhaul than inside a site, so the cross-tier links get their eq. (24)
    weight multiplied by ``uplink_damping`` — mixing leans on cheap intra-
    tier links, and the surplus mass moves onto the diagonal. The result is
    still symmetric doubly stochastic with strictly positive diagonal, so
    every downstream consumer (step-size bound, spectrum checks, the
    invariant monitor) is unaffected.

    Requires a topology carrying per-node tier labels
    (:class:`~repro.topology.generators.HierarchicalTopology`).
    """
    check_non_negative("epsilon", epsilon)
    tiers = getattr(topology, "tiers", None)
    if tiers is None:
        raise TopologyError(
            "tiered_metropolis_weights needs a topology with .tiers "
            "(build one with hierarchical_topology)"
        )
    if not 0.0 < uplink_damping <= 1.0:
        raise TopologyError(
            f"uplink_damping must be in (0, 1], got {uplink_damping}"
        )
    n = topology.n_nodes
    matrix = np.zeros((n, n), dtype=float)
    for u, v in topology.edges:
        weight = 1.0 / (max(topology.degree(u), topology.degree(v)) + epsilon)
        if tiers[u] != tiers[v]:
            weight = uplink_damping * weight
        matrix[u, v] = weight
        matrix[v, u] = weight
    _fill_diagonal_to_stochastic(matrix)
    return matrix


def _fill_diagonal_to_stochastic(matrix: np.ndarray) -> None:
    """Set each diagonal entry to one minus its row's off-diagonal sum (in place)."""
    np.fill_diagonal(matrix, 0.0)
    row_sums = matrix.sum(axis=1)
    if np.any(row_sums > 1.0 + 1e-9):
        raise TopologyError(
            "off-diagonal weights sum above 1 on some row; the construction "
            "cannot produce a doubly stochastic matrix"
        )
    np.fill_diagonal(matrix, 1.0 - row_sums)
