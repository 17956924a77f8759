"""Tests for repro.weights.parametrization.EdgeParametrization."""

import numpy as np
import pytest

from repro.exceptions import WeightMatrixError
from repro.topology.generators import random_topology
from repro.utils.linalg import is_doubly_stochastic, is_symmetric
from repro.weights.construction import metropolis_weights
from repro.weights.parametrization import EdgeParametrization


@pytest.fixture
def topo():
    return random_topology(8, 3.0, seed=2)


@pytest.fixture
def parametrization(topo):
    return EdgeParametrization(topo, min_self_weight=0.01)


class TestRoundTrip:
    def test_matrix_from_theta_is_symmetric_stochastic(self, parametrization):
        theta = np.full(parametrization.n_edges, 0.05)
        w = parametrization.to_matrix(theta)
        assert is_symmetric(w)
        np.testing.assert_allclose(w.sum(axis=1), 1.0)

    def test_round_trip_through_matrix(self, parametrization):
        theta = np.linspace(0.01, 0.1, parametrization.n_edges)
        recovered = parametrization.from_matrix(parametrization.to_matrix(theta))
        np.testing.assert_allclose(recovered, theta)

    def test_metropolis_is_representable(self, topo, parametrization):
        w = metropolis_weights(topo)
        theta = parametrization.from_matrix(w)
        np.testing.assert_allclose(parametrization.to_matrix(theta), w, atol=1e-12)

    def test_shape_mismatch_rejected(self, parametrization):
        with pytest.raises(WeightMatrixError):
            parametrization.to_matrix(np.zeros(parametrization.n_edges + 1))
        with pytest.raises(WeightMatrixError):
            parametrization.from_matrix(np.eye(3))


class TestFeasibility:
    def test_zero_theta_is_feasible(self, parametrization):
        assert parametrization.is_feasible(np.zeros(parametrization.n_edges))

    def test_negative_theta_infeasible(self, parametrization):
        theta = np.zeros(parametrization.n_edges)
        theta[0] = -0.01
        assert not parametrization.is_feasible(theta)

    def test_oversubscribed_node_infeasible(self, parametrization):
        theta = np.full(parametrization.n_edges, 0.9)
        assert not parametrization.is_feasible(theta)


class TestProjection:
    def test_projection_is_identity_on_feasible_points(self, parametrization):
        theta = np.full(parametrization.n_edges, 0.05)
        projected = parametrization.project(theta)
        np.testing.assert_allclose(projected, theta, atol=1e-9)

    def test_projection_lands_in_feasible_set(self, parametrization, rng):
        for _ in range(5):
            theta = rng.normal(0.3, 0.5, size=parametrization.n_edges)
            projected = parametrization.project(theta)
            assert parametrization.is_feasible(projected, atol=1e-6)

    def test_projection_clips_negatives(self, parametrization):
        theta = np.full(parametrization.n_edges, -1.0)
        projected = parametrization.project(theta)
        np.testing.assert_allclose(projected, 0.0, atol=1e-9)

    def test_projection_is_euclidean_optimal_on_simple_case(self):
        # Single edge between two nodes: feasible set is [0, 1 - s].
        from repro.topology.graph import Topology

        topo = Topology(2, [(0, 1)])
        par = EdgeParametrization(topo, min_self_weight=0.1)
        assert par.project(np.array([2.0]))[0] == pytest.approx(0.9, abs=1e-9)
        assert par.project(np.array([-2.0]))[0] == pytest.approx(0.0, abs=1e-9)
        assert par.project(np.array([0.4]))[0] == pytest.approx(0.4, abs=1e-9)


class TestSubgradient:
    def test_matches_finite_differences(self, parametrization):
        # For a simple eigenvalue, d λ / d θ_e = -(v_u - v_v)^2.
        theta = np.linspace(0.02, 0.12, parametrization.n_edges)
        w = parametrization.to_matrix(theta)
        eigenvalues, eigenvectors = np.linalg.eigh(w)
        vector = eigenvectors[:, 0]  # smallest eigenvalue
        analytic = parametrization.eigenvalue_subgradient(vector)
        eps = 1e-7
        for k in range(parametrization.n_edges):
            up = theta.copy()
            up[k] += eps
            lam_up = np.linalg.eigvalsh(parametrization.to_matrix(up))[0]
            numeric = (lam_up - eigenvalues[0]) / eps
            assert analytic[k] == pytest.approx(numeric, abs=1e-4)

    def test_subgradient_is_nonpositive(self, parametrization, rng):
        vector = rng.normal(size=parametrization.topology.n_nodes)
        assert np.all(parametrization.eigenvalue_subgradient(vector) <= 0)

    def test_wrong_vector_shape_rejected(self, parametrization):
        with pytest.raises(WeightMatrixError):
            parametrization.eigenvalue_subgradient(np.zeros(3))
