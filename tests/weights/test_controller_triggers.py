"""The adaptive controller's trigger rule, without a trainer.

``TopologyController.after_round`` decides after every round whether a
cycle runs and why: churn recovery beats an APE stage advance, which beats
the periodic schedule. These cases drive it with hand-made down sets and
stage counters and record every ``propose`` call it makes.
"""

from __future__ import annotations

from repro.core.config import SNAPConfig
from repro.topology.graph import Topology
from repro.weights.adaptive import TopologyController
from repro.weights.optimizer import optimize_weight_matrix

BASE = Topology(
    8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 2), (0, 4), (0, 6)]
)
RESULT = optimize_weight_matrix(BASE, iterations=40)


def controller_for(**overrides):
    """A controller whose every ``propose`` call is recorded as (round, reason)."""
    settings = {
        "adaptive_topology": True,
        "topology_reoptimize_every": 4,
        "topology_prune_threshold": 0.0,  # prunes nothing on its own
        "weight_iterations": 40,
    }
    settings.update(overrides)
    controller = TopologyController(BASE, RESULT, SNAPConfig(**settings))
    controller.calls = []
    propose = controller.propose

    def recording_propose(round_index, **kwargs):
        controller.calls.append((round_index, kwargs["reason"]))
        return propose(round_index, **kwargs)

    controller.propose = recording_propose
    return controller


def after(controller, round_index, down=(), stage=0):
    return controller.after_round(
        round_index, frozenset(down), stage, bytes_spent=0, total_rounds=100
    )


class TestPrecedence:
    def test_churn_beats_a_stage_advance_and_consumes_it(self):
        controller = controller_for()
        assert after(controller, 1, down={3}) is None
        swap = after(controller, 2, stage=1)
        assert swap.reason == "churn"
        assert after(controller, 3, stage=1) is None
        assert controller.calls == [(2, "churn")]

    def test_a_stage_advance_beats_the_periodic_schedule(self):
        controller = controller_for()
        after(controller, 4, stage=1)
        after(controller, 8, stage=1)
        assert controller.calls == [(4, "ape-stage"), (8, "periodic")]

    def test_a_churn_needs_the_previous_round_down(self):
        controller = controller_for()
        for round_index in (1, 2):
            after(controller, round_index, down={5})
        after(controller, 3)
        assert controller.calls == [(3, "churn")]


class TestReaddCandidates:
    def test_a_churn_recovery_readds_nothing_and_keeps_the_pool(self):
        # Re-adds come only from the fleet's membership path
        # (``propose(add_candidates=readd_candidates(joined))``); a churn
        # recovery re-solves on the pruned topology and leaves the pool be.
        controller = controller_for()
        dropped = controller.propose(
            1, reason="membership", drop_candidates=((0, 4),)
        )
        assert dropped.pruned_edges == ((0, 4),)
        after(controller, 2, down={4})
        swap = after(controller, 3)
        assert swap.reason == "churn"
        assert swap.added_edges == ()
        assert not controller.topology.has_edge(0, 4)
        assert controller.readd_candidates({4}) == ((0, 4),)


class TestIdle:
    def test_no_trigger_runs_no_cycle(self):
        controller = controller_for()
        for round_index in (1, 2, 3, 5):
            assert after(controller, round_index) is None
        assert controller.calls == []

    def test_an_idle_periodic_cycle_returns_none(self):
        controller = controller_for()
        assert after(controller, 4) is None
        assert controller.calls == [(4, "periodic")]
        assert controller.swaps == []
