"""Tests for repro.topology.failures."""

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan
from repro.topology.failures import IndependentLinkFailures, ScheduledFailures
from repro.topology.generators import random_topology


@pytest.fixture
def topo():
    return random_topology(12, 4.0, seed=0)


class TestNoFailures:
    """The fault-free default is a plan with no link models."""

    def test_always_empty(self, topo):
        plan = FaultPlan()
        assert plan.failed_links(topo, 0) == frozenset()
        assert plan.failed_links(topo, 999) == frozenset()


class TestIndependentLinkFailures:
    def test_zero_rate_never_fails(self, topo):
        model = IndependentLinkFailures(0.0, seed=1)
        assert all(not model.failed_links(topo, r) for r in range(20))

    def test_full_rate_fails_everything(self, topo):
        model = IndependentLinkFailures(1.0, seed=1)
        assert model.failed_links(topo, 3) == frozenset(topo.edges)

    def test_deterministic_per_round(self, topo):
        model = IndependentLinkFailures(0.3, seed=2)
        assert model.failed_links(topo, 5) == model.failed_links(topo, 5)

    def test_rounds_differ(self, topo):
        model = IndependentLinkFailures(0.5, seed=2)
        outcomes = {model.failed_links(topo, r) for r in range(10)}
        assert len(outcomes) > 1

    def test_seed_controls_outcomes(self, topo):
        a = IndependentLinkFailures(0.5, seed=1).failed_links(topo, 0)
        b = IndependentLinkFailures(0.5, seed=1).failed_links(topo, 0)
        assert a == b

    def test_empirical_rate_is_close(self, topo):
        model = IndependentLinkFailures(0.2, seed=3)
        total = sum(len(model.failed_links(topo, r)) for r in range(300))
        rate = total / (300 * topo.n_edges)
        assert rate == pytest.approx(0.2, abs=0.03)

    def test_failed_links_are_canonical_edges(self, topo):
        model = IndependentLinkFailures(0.9, seed=4)
        for u, v in model.failed_links(topo, 0):
            assert u < v
            assert (u, v) in topo.edges

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            IndependentLinkFailures(1.5)

    def test_rejects_negative_round(self, topo):
        model = IndependentLinkFailures(0.1, seed=0)
        with pytest.raises(ConfigurationError):
            model.failed_links(topo, -1)


class TestScheduledFailures:
    def test_schedule_is_followed(self, topo):
        edge = topo.edges[0]
        model = ScheduledFailures({2: [edge]})
        assert model.failed_links(topo, 2) == frozenset({edge})
        assert model.failed_links(topo, 1) == frozenset()

    def test_edges_canonicalized(self, topo):
        u, v = topo.edges[0]
        model = ScheduledFailures({0: [(v, u)]})
        assert model.failed_links(topo, 0) == frozenset({(u, v)})
