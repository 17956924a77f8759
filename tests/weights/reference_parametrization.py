"""The pre-PR-16 ``EdgeParametrization`` kernels, kept verbatim as a test oracle.

These are the bodies ``repro.weights.parametrization`` had before the
Dykstra sweep went O(|E|) and the θ↔W conversions moved to index arrays:
one full-length correction vector per node, one Python statement per edge.
They are slow on purpose — nothing in ``src/`` imports them — and exist so
``test_parametrization_bitwise.py`` can assert ``tobytes()`` equality of the
production kernels against the arithmetic every pinned digest was captured
with. Do not "fix" or vectorize anything here.

The one edit against the original is the deleted ``min_edge_weight`` knob,
which was hard-wired to ``0.0`` by its only caller; the literal stands in
its place.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import OptimizationError, WeightMatrixError
from repro.topology.graph import Topology
from repro.weights.parametrization import EdgeParametrization


class ReferenceEdgeParametrization(EdgeParametrization):
    """``EdgeParametrization`` with every kernel replaced by its old body.

    Subclassing keeps the oracle drop-in: the solve-level test swaps it for
    the production class inside ``repro.weights.optimizer`` and runs the
    unmodified solver loop on top of it.
    """

    def __init__(self, topology: Topology, min_self_weight: float = 1e-3):
        super().__init__(topology, min_self_weight=min_self_weight)
        self._edges = topology.edges
        # incidence[i] = indices of θ coordinates touching node i
        self._node_edges: list[np.ndarray] = [
            np.array(
                [k for k, (u, v) in enumerate(self._edges) if u == i or v == i],
                dtype=np.int64,
            )
            for i in range(topology.n_nodes)
        ]

    def to_matrix(self, theta: np.ndarray):
        theta = self._check_theta(theta)
        n = self.topology.n_nodes
        matrix = np.zeros((n, n), dtype=float)
        for value, (u, v) in zip(theta, self._edges):
            matrix[u, v] = value
            matrix[v, u] = value
        diagonal = 1.0 - matrix.sum(axis=1)
        matrix[np.arange(n), np.arange(n)] = diagonal
        return matrix

    def from_matrix(self, matrix) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=float)
        n = self.topology.n_nodes
        if matrix.shape != (n, n):
            raise WeightMatrixError(
                f"matrix shape {matrix.shape} does not match topology size {n}"
            )
        return np.array([matrix[u, v] for u, v in self._edges], dtype=float)

    def is_feasible(self, theta: np.ndarray, atol: float = 1e-9) -> bool:
        theta = self._check_theta(theta)
        if np.any(theta < 0.0 - atol):
            return False
        for edges in self._node_edges:
            if theta[edges].sum() > 1.0 - self.min_self_weight + atol:
                return False
        return True

    def project(
        self, theta: np.ndarray, max_iterations: int = 500, tol: float = 1e-12
    ) -> np.ndarray:
        theta = self._check_theta(theta).astype(float, copy=True)
        n_sets = 1 + self.topology.n_nodes
        corrections = [np.zeros_like(theta) for _ in range(n_sets)]
        budget = 1.0 - self.min_self_weight
        for _ in range(max_iterations):
            previous = theta.copy()
            # Set 0: the box θ >= 0.
            point = theta + corrections[0]
            projected = np.maximum(point, 0.0)
            corrections[0] = point - projected
            theta = projected
            # Sets 1..n: node halfspaces.
            for node, edges in enumerate(self._node_edges, start=1):
                idx = edges
                point = theta + corrections[node]
                if idx.size:
                    excess = point[idx].sum() - budget
                    if excess > 0.0:
                        projected = point.copy()
                        projected[idx] -= excess / idx.size
                    else:
                        projected = point
                else:
                    projected = point
                corrections[node] = point - projected
                theta = projected
            if np.max(np.abs(theta - previous)) < tol:
                break
        else:
            if not self.is_feasible(theta, atol=1e-6):
                raise OptimizationError(
                    "Dykstra projection failed to converge to a feasible point"
                )
        # Clean up residual numerical violations.
        theta = np.maximum(theta, 0.0)
        for edges in self._node_edges:
            if edges.size:
                total = theta[edges].sum()
                if total > budget:
                    theta[edges] *= budget / total
        return theta

    def eigenvalue_subgradient(self, eigenvector: np.ndarray) -> np.ndarray:
        eigenvector = np.asarray(eigenvector, dtype=float)
        if eigenvector.shape != (self.topology.n_nodes,):
            raise WeightMatrixError(
                f"eigenvector shape {eigenvector.shape} does not match topology "
                f"size {self.topology.n_nodes}"
            )
        return np.array(
            [-((eigenvector[u] - eigenvector[v]) ** 2) for u, v in self._edges],
            dtype=float,
        )
