"""Tests for repro.weights.construction."""

import numpy as np
import pytest

from repro.topology.generators import (
    complete_topology,
    random_topology,
    ring_topology,
    star_topology,
)
from repro.utils.linalg import is_doubly_stochastic
from repro.weights.construction import metropolis_weights
from repro.weights.validation import check_weight_matrix


@pytest.fixture(params=["ring", "star", "complete", "random"])
def topology(request):
    return {
        "ring": ring_topology(6),
        "star": star_topology(7),
        "complete": complete_topology(5),
        "random": random_topology(12, 3.5, seed=1),
    }[request.param]


class TestMetropolisWeights:
    def test_structurally_valid_on_all_topologies(self, topology):
        w = metropolis_weights(topology)
        check_weight_matrix(w, topology)

    def test_matches_equation_24_off_diagonal(self):
        topo = star_topology(4)  # center 0 has degree 3, leaves degree 1
        epsilon = 0.01
        w = metropolis_weights(topo, epsilon=epsilon)
        expected = 1.0 / (3 + epsilon)
        for leaf in (1, 2, 3):
            assert w[0, leaf] == pytest.approx(expected)

    def test_diagonal_completes_rows_to_one(self, topology):
        w = metropolis_weights(topology)
        np.testing.assert_allclose(w.sum(axis=1), 1.0)

    def test_positive_epsilon_gives_positive_diagonal(self, topology):
        w = metropolis_weights(topology, epsilon=0.05)
        assert np.all(np.diag(w) > 0)

    def test_zero_epsilon_allowed(self):
        topo = ring_topology(5)
        w = metropolis_weights(topo, epsilon=0.0)
        assert is_doubly_stochastic(w)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(Exception):
            metropolis_weights(ring_topology(5), epsilon=-0.1)
