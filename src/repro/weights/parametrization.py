"""Edge-Laplacian parametrization of the feasible weight-matrix set.

Both weight-optimization problems in the paper share the feasible set

.. math::

    \\{ W \\in S_N :\\; W = W^T,\\; w_{ij} = 0 \\; \\forall j \\notin B_i \\}

(Theorem 2 proves it convex). Parametrizing by one scalar per topology edge
turns this set into a simple polytope: writing :math:`L_e = (e_u - e_v)(e_u -
e_v)^T` for the Laplacian of a single edge ``e = (u, v)``,

.. math::

    W(\\theta) = I - \\sum_{e \\in E} \\theta_e L_e

is automatically symmetric with unit row sums for *any* θ; double
stochasticity then reduces to two linear constraint families:

* ``θ_e >= 0`` — off-diagonal entries nonnegative;
* ``sum_{e ∋ i} θ_e <= 1`` for every node ``i`` — diagonal entries nonnegative.

This is the same reformulation Boyd et al. use for the fastest-mixing Markov
chain, and it lets us solve the paper's problems (22)/(23) with a projected
subgradient method instead of the interior-point solver the paper mentions —
the optimum is the same because the problems are convex.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import OptimizationError, WeightMatrixError
from repro.topology.graph import Topology
from repro.types import WeightMatrix


def _gathered_sum(values: list[float], picks: list[int]) -> float:
    """``np.array(values)[picks].sum()``, bit for bit, without the arrays.

    numpy adds fewer than 8 float64 terms left to right from ``+0.0`` and
    switches to unrolled pairwise blocks from 8 terms up, so the long case is
    handed to numpy itself. (The builtin ``sum`` compensates from Python 3.12
    on and is *not* the same arithmetic.)
    """
    if len(picks) >= 8:
        return float(np.array([values[k] for k in picks]).sum())
    total = 0.0
    for k in picks:
        total += values[k]
    return total


class EdgeParametrization:
    """Bijection between edge-weight vectors θ and feasible weight matrices.

    Every θ_e is bounded below by zero, which lets the optimizer *remove*
    links entirely (the paper notes zero weights mean the two servers "do not
    need to exchange parameters").

    Parameters
    ----------
    topology:
        The edge-server graph whose edges index the coordinates of θ.
    min_self_weight:
        Lower bound enforced on every diagonal entry of ``W(θ)``. A small
        positive value keeps the matrix in the interior of the feasible set
        (mirroring the ε in eq. 24) and keeps ``λ_max = 1`` simple.
    """

    def __init__(self, topology: Topology, min_self_weight: float = 1e-3):
        if not 0.0 <= min_self_weight < 1.0:
            raise WeightMatrixError(
                f"min_self_weight must be in [0, 1), got {min_self_weight}"
            )
        self.topology = topology
        self.min_self_weight = float(min_self_weight)
        # One pass over the edge list; everything below is index arithmetic.
        edges = np.array(topology.edges, dtype=np.int64).reshape(-1, 2)
        self._u, self._v = np.ascontiguousarray(edges.T)
        #: (u0, v0, u1, v1, ...): the order the per-edge loops touched nodes in.
        self._endpoints = edges.ravel()
        # _node_edges[i] = θ coordinates touching node i, ascending (a stable
        # sort of the endpoints groups them by node and keeps edge order).
        by_node = (np.argsort(self._endpoints, kind="stable") // 2).tolist()
        stops = np.cumsum(
            np.bincount(self._endpoints, minlength=topology.n_nodes)
        ).tolist()
        self._node_edges: list[list[int]] = [
            by_node[start:stop] for start, stop in zip([0] + stops, stops)
        ]

    @property
    def n_edges(self) -> int:
        """Dimension of the θ vector (one coordinate per undirected edge)."""
        return self._u.shape[0]

    # -- θ <-> W -----------------------------------------------------------

    def to_matrix(self, theta: np.ndarray) -> WeightMatrix:
        """Build ``W(θ) = I - Σ θ_e L_e``."""
        theta = self._check_theta(theta)
        n = self.topology.n_nodes
        matrix = np.zeros((n, n), dtype=float)
        matrix[self._u, self._v] = theta
        matrix[self._v, self._u] = theta
        diagonal = 1.0 - matrix.sum(axis=1)
        matrix[np.arange(n), np.arange(n)] = diagonal
        return matrix

    def from_matrix(self, matrix: WeightMatrix) -> np.ndarray:
        """Extract θ from a feasible matrix (reads the edge entries)."""
        matrix = np.asarray(matrix, dtype=float)
        n = self.topology.n_nodes
        if matrix.shape != (n, n):
            raise WeightMatrixError(
                f"matrix shape {matrix.shape} does not match topology size {n}"
            )
        return matrix[self._u, self._v]

    # -- feasibility --------------------------------------------------------

    def _node_totals(self, theta: np.ndarray) -> np.ndarray:
        """``Σ_{e ∋ i} θ_e`` per node, each added in edge order from ``+0.0``.

        ``np.bincount`` accumulates sequentially in input order, which is
        what a ``degree_sum[u] += θ; degree_sum[v] += θ`` loop over the edges
        does. It is *not* the ``ndarray.sum()`` order the projection uses, so
        the projection takes it only as a screen.
        """
        return np.bincount(
            self._endpoints, np.repeat(theta, 2), minlength=self.topology.n_nodes
        )

    def is_feasible(self, theta: np.ndarray, atol: float = 1e-9) -> bool:
        """Whether θ satisfies both constraint families (within ``atol``)."""
        theta = self._check_theta(theta)
        if np.any(theta < -atol):
            return False
        budget = 1.0 - self.min_self_weight
        return not np.any(self._node_totals(theta) > budget + atol)

    def project(
        self, theta: np.ndarray, max_iterations: int = 500, tol: float = 1e-12
    ) -> np.ndarray:
        """Euclidean projection of θ onto the feasible polytope.

        Uses Dykstra's alternating-projection algorithm over the box
        ``θ >= 0`` and one halfspace per node
        ``Σ_{e ∋ i} θ_e <= 1 - min_self_weight``. Dykstra (unlike plain
        alternating projection) converges to the exact Euclidean projection
        onto the intersection of convex sets, which is what subgradient
        methods need for convergence guarantees.

        One sweep costs ``O(|E|)``: a node's correction lives only on its own
        edges (``None`` while it is zero), and a node with no correction and
        a slack halfspace is left after one exact sum. The node steps run on
        Python floats in the order, and with the summation order, of a
        full-length ``theta + corrections[node]`` formulation — weights are
        bitwise those of that formulation (see the oracle in
        ``tests/weights/reference_parametrization.py``). No ``-0.0`` can
        appear: the first box step adds ``+0.0`` to every coordinate and no
        later step produces one.
        """
        theta = self._check_theta(theta).astype(float, copy=True)
        box_correction = np.zeros_like(theta)
        corrections: list[list[float] | None] = [None] * len(self._node_edges)
        budget = 1.0 - self.min_self_weight
        for _ in range(max_iterations):
            previous = theta
            # Set 0: the box θ >= 0.
            point = theta + box_correction
            theta = np.maximum(point, 0.0)
            box_correction = point - theta
            # Sets 1..n: node halfspaces, in node order (Gauss-Seidel).
            values = theta.tolist()
            for node, edges in enumerate(self._node_edges):
                correction = corrections[node]
                if correction is not None:
                    for k, c in zip(edges, correction):
                        values[k] += c
                excess = _gathered_sum(values, edges) - budget
                if excess > 0.0:
                    shift = excess / len(edges)
                    corrections[node] = correction = []
                    for k in edges:
                        moved = values[k] - shift
                        correction.append(values[k] - moved)
                        values[k] = moved
                else:
                    corrections[node] = None
            theta = np.array(values, dtype=float)
            if np.max(np.abs(theta - previous)) < tol:
                break
        else:
            if not self.is_feasible(theta, atol=1e-6):
                raise OptimizationError(
                    "Dykstra projection failed to converge to a feasible point"
                )
        # Clean up residual numerical violations. Rescaling only shrinks θ, so
        # a node the (differently rounded) screen clears by a wide margin
        # cannot be over budget in the exact sum either.
        theta = np.maximum(theta, 0.0)
        values = theta.tolist()
        for node in np.flatnonzero(self._node_totals(theta) > budget - 1e-9).tolist():
            edges = self._node_edges[node]
            total = _gathered_sum(values, edges)
            if total > budget:
                scale = budget / total
                for k in edges:
                    values[k] *= scale
        return np.array(values, dtype=float)

    # -- spectral subgradients ----------------------------------------------

    def eigenvalue_subgradient(self, eigenvector: np.ndarray) -> np.ndarray:
        """Subgradient of an eigenvalue of ``W(θ)`` with respect to θ.

        For a simple eigenvalue λ with unit eigenvector ``v``,
        ``∂λ/∂θ_e = -v^T L_e v = -(v_u - v_v)^2``. The formula is also a valid
        subgradient (of the max of clustered eigenvalues) when λ is repeated.
        """
        eigenvector = np.asarray(eigenvector, dtype=float)
        if eigenvector.shape != (self.topology.n_nodes,):
            raise WeightMatrixError(
                f"eigenvector shape {eigenvector.shape} does not match topology "
                f"size {self.topology.n_nodes}"
            )
        # float_power is libm ``pow`` per element, the arithmetic of a scalar
        # ``x ** 2``; ``np.square`` / array ``** 2`` round differently (~0.1 %
        # of inputs, more under SIMD dispatch) and would move every digest.
        return -np.float_power(eigenvector[self._u] - eigenvector[self._v], 2.0)

    def _check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_edges,):
            raise WeightMatrixError(
                f"theta shape {theta.shape} does not match edge count {self.n_edges}"
            )
        return theta
