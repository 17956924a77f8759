"""Tests for per-edge delivery: whether a link carries a frame in a round.

Every sender asks its ``FaultPlan`` through ``link_up`` before a frame is
charged and delivered, so these assert that answer directly.
"""

import pytest

from repro.faults import FaultPlan
from repro.topology.failures import ScheduledFailures
from repro.topology.generators import ring_topology


@pytest.fixture
def ring():
    return ring_topology(5)


class TestDelivery:
    def test_failure_is_round_scoped(self, ring):
        plan = FaultPlan(links=ScheduledFailures({1: [(0, 1)]}))
        assert not plan.link_up(ring, 0, 1, 1)
        assert plan.link_up(ring, 0, 1, 2)

    def test_link_up_query(self, ring):
        plan = FaultPlan(links=ScheduledFailures({4: [(2, 3)]}))
        assert not plan.link_up(ring, 3, 2, 4)
        assert plan.link_up(ring, 2, 3, 5)
        assert plan.link_up(ring, 2, 3, 3)
        assert plan.link_up(ring, 0, 1, 4)
