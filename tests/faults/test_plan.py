"""Tests for FaultPlan: composition, and the plan as the one fault decision."""

import numpy as np
import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.faults import (
    CrashRestartSchedule,
    FaultPlan,
    GilbertElliottLinkFailures,
    IndependentCorruption,
    NoCorruption,
    ScheduledCorruption,
)
from repro.models.ridge import RidgeRegression
from repro.simulation.experiments import credit_svm_workload
from repro.testing.digest import capture_run
from repro.topology.failures import (
    IndependentLinkFailures,
    IndependentNodeFailures,
    LinkFailureModel,
    ScheduledFailures,
)
from repro.topology.generators import random_topology, ring_topology
from repro.topology.graph import Topology


class TestFaultPlan:
    def test_empty_plan_is_benign(self, ring6):
        plan = FaultPlan()
        assert plan.failed_links(ring6, 1) == frozenset()
        assert plan.round_failed_links(ring6, 1) == frozenset()
        assert plan.failed_nodes(ring6, 1) == frozenset()
        assert plan.link_up(ring6, 0, 1, 1)
        assert not plan.corrupted(ring6, 0, 1, 1)
        assert isinstance(plan.corruption, NoCorruption)

    def test_link_failures_union_over_constituents(self, ring6):
        plan = FaultPlan(
            links=[
                ScheduledFailures({1: [(0, 1)]}),
                ScheduledFailures({1: [(2, 3)], 2: [(4, 5)]}),
            ]
        )
        assert plan.failed_links(ring6, 1) == {(0, 1), (2, 3)}
        assert plan.failed_links(ring6, 2) == {(4, 5)}
        assert not plan.link_up(ring6, 1, 0, 1)  # direction-agnostic
        assert plan.link_up(ring6, 4, 5, 1)

    def test_node_failures_union_over_constituents(self, ring6):
        plan = FaultPlan(
            nodes=[
                CrashRestartSchedule({0: [(1, 2)]}),
                CrashRestartSchedule({1: [(2, 2)]}),
            ]
        )
        assert plan.failed_nodes(ring6, 1) == {0}
        assert plan.failed_nodes(ring6, 2) == {0, 1}

    def test_single_model_accepted_without_sequence(self, ring6):
        plan = FaultPlan(links=ScheduledFailures({1: [(0, 1)]}))
        assert plan.failed_links(ring6, 1) == {(0, 1)}

    def test_corruption_routed_through_plan(self, ring6):
        plan = FaultPlan(corruption=ScheduledCorruption({2: [(0, 1)]}))
        assert plan.corrupted(ring6, 0, 1, 2)
        assert not plan.corrupted(ring6, 0, 1, 1)

    def test_wrong_types_rejected(self):
        with pytest.raises(TypeError):
            FaultPlan(links=CrashRestartSchedule({0: [(1, 1)]}))
        with pytest.raises(TypeError):
            FaultPlan(nodes=ScheduledFailures({1: [(0, 1)]}))
        with pytest.raises(TypeError):
            FaultPlan(corruption="nope")

    def test_corruption_rate_zero_is_never_corrupt(self, ring6):
        plan = FaultPlan(corruption=IndependentCorruption(0.0, seed=1))
        assert not any(
            plan.corrupted(ring6, u, v, r)
            for r in range(1, 10)
            for u, v in ring6.edges
        )


class _CountingLinks(LinkFailureModel):
    """Downs link (0, 1) every round and counts the queries it answers."""

    def __init__(self):
        self.calls = 0

    def failed_links(self, topology, round_index):
        self.calls += 1
        return frozenset({(0, 1)})


class TestPlanAsDecisionPoint:
    """Link outages and corruption are decided by the plan, per frame."""

    def test_outage_is_bidirectional(self, ring6):
        plan = FaultPlan(links=ScheduledFailures({1: [(0, 1)]}))
        assert not plan.link_up(ring6, 0, 1, 1)
        assert not plan.link_up(ring6, 1, 0, 1)
        assert plan.link_up(ring6, 1, 2, 1)

    def test_corruption_is_directional(self, ring6):
        plan = FaultPlan(corruption=ScheduledCorruption({1: [(0, 1)]}))
        assert plan.corrupted(ring6, 0, 1, 1)
        assert not plan.corrupted(ring6, 1, 0, 1)
        # A damaged frame crossed a working link.
        assert plan.link_up(ring6, 0, 1, 1)

    def test_round_failed_links_equals_a_fresh_query_in_any_order(self):
        topo = random_topology(10, 4.0, seed=2)
        plan = FaultPlan(links=GilbertElliottLinkFailures(0.3, 0.4, seed=5))
        fresh = FaultPlan(links=GilbertElliottLinkFailures(0.3, 0.4, seed=5))
        rng = np.random.default_rng(0)
        edges = list(topo.edges)
        for round_index in (6, 1, 3, 3, 9, 2):
            expected = fresh.failed_links(topo, round_index)
            for k in rng.permutation(len(edges)):
                u, v = edges[k]
                if rng.random() < 0.5:
                    u, v = v, u
                assert plan.link_up(topo, u, v, round_index) == (
                    (min(u, v), max(u, v)) not in expected
                )
            assert plan.round_failed_links(topo, round_index) == expected

    def test_one_model_query_per_round_and_topology(self, ring6):
        model = _CountingLinks()
        plan = FaultPlan(links=model)
        for _ in range(3):
            for u, v in ring6.edges:
                plan.link_up(ring6, u, v, 1)
        assert model.calls == 1
        plan.link_up(ring6, 0, 1, 2)
        assert model.calls == 2

    def test_new_topology_object_recomputes_within_a_round(self):
        """The adaptive-swap case: a pruned topology installed mid-round is
        answered for itself, not from the memo of the one it replaced."""
        ring = ring_topology(6)
        plan = FaultPlan(links=IndependentLinkFailures(0.5, seed=3))
        before = plan.round_failed_links(ring, 4)
        pruned = Topology(6, [edge for edge in ring.edges if edge != (0, 1)])
        after = plan.round_failed_links(pruned, 4)
        assert after == plan.failed_links(pruned, 4)
        assert (0, 1) not in after
        assert before == plan.failed_links(ring, 4)

        model = _CountingLinks()
        counted = FaultPlan(links=model)
        counted.link_up(ring, 0, 1, 1)
        # Equal, but not the same object: identity decides.
        counted.link_up(ring_topology(6), 0, 1, 1)
        assert model.calls == 2


class TestPlanOnTheWire:
    """What a plan decision does to a simulated round's ledger and views."""

    @pytest.fixture
    def setup(self, rng):
        topo = ring_topology(5)
        X = rng.normal(size=(100, 3))
        y = X @ rng.normal(size=3)
        shards = iid_partition(Dataset(X, y), 5, seed=0)
        return RidgeRegression(3, regularization=0.1), shards, topo

    def _round_one(self, setup, plan, engine="reference"):
        model, shards, topo = setup
        trainer = SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(alpha=0.05, seed=0, engine=engine),
            fault_plan=plan,
        )
        record = trainer.run(max_rounds=1, stop_on_convergence=False).rounds[0]
        flows = {(r.source, r.destination): r for r in trainer.tracker.records()}
        return trainer, record, flows

    @pytest.mark.parametrize("engine", ["reference", "vectorized", "semisync"])
    def test_intact_frame_charges_one_hop(self, setup, engine):
        trainer, record, flows = self._round_one(setup, FaultPlan(), engine)
        assert len(flows) == 2 * setup[2].n_edges
        assert all(flow.hops == 1 for flow in flows.values())
        assert trainer.tracker.total_cost == trainer.tracker.total_bytes
        assert record.stale_links == 0

    @pytest.mark.parametrize("engine", ["reference", "vectorized", "semisync"])
    def test_downed_link_charges_nothing(self, setup, engine):
        plan = FaultPlan(links=ScheduledFailures({1: [(0, 1)]}))
        _, record, flows = self._round_one(setup, plan, engine)
        assert (0, 1) not in flows and (1, 0) not in flows
        assert len(flows) == 2 * setup[2].n_edges - 2
        assert record.stale_links == 2

    @pytest.mark.parametrize("engine", ["reference", "vectorized", "semisync"])
    def test_corrupted_frame_charged_but_not_delivered(self, setup, engine):
        plan = FaultPlan(corruption=ScheduledCorruption({1: [(0, 1)]}))
        trainer, record, flows = self._round_one(setup, plan, engine)
        # The bits crossed the wire: corruption costs bytes, unlike a
        # failed link — and only the damaged direction goes stale.
        assert (0, 1) in flows and (1, 0) in flows
        assert record.stale_links == 1
        assert trainer.link_staleness[(0, 1)] == 1
        assert trainer.link_staleness[(1, 0)] == 0


#: Captured before the ``failure_model=`` / ``node_failure_model=`` trainer
#: arguments were removed, from ``failure_model=L, node_failure_model=M``:
#: ``FaultPlan(links=L, nodes=M)`` must replay that run bit for bit.
LEGACY_KEYWORD_PIN = {
    "rounds_sha": "ad9b1394ae9aabb779ea2cde8234dc2e521b55fb49f464eebd7dd70f77e54cbc",
    "ledger_sha": "11757aebafe6103bcd955d2d8ab74f4f006fbcba4578e4bdf36105bdc4b6343f",
    "final_params_sha": "1132004c3b6555bc8f8a3a1de0a8b3a378a130216de1d295e6dcdbc09eb28940",
    "total_bytes": 140424,
    "total_cost": 140424,
    "final_loss": "0x1.a7fb2c2189649p-2",
}


@pytest.mark.parametrize("engine", ["reference", "vectorized", "semisync"])
def test_fault_plan_replays_the_legacy_keyword_run(engine):
    workload = credit_svm_workload(n_servers=12, n_train=600, seed=3)
    trainer = SNAPTrainer(
        workload.model,
        workload.shards,
        workload.topology,
        SNAPConfig(seed=0, engine=engine),
        fault_plan=FaultPlan(
            links=IndependentLinkFailures(0.1, seed=3),
            nodes=IndependentNodeFailures(0.05, seed=4),
        ),
    )
    digest = capture_run(trainer, max_rounds=25)
    assert digest.pinned() == LEGACY_KEYWORD_PIN


class TestPlanClocks:
    def test_default_plan_has_true_clocks(self, ring6):
        assert FaultPlan().compute_multiplier(ring6, 0, 1) == 1.0

    def test_clock_models_compose_by_product(self, ring6):
        from repro.faults import ScheduledStragglers

        plan = FaultPlan(
            clocks=[
                ScheduledStragglers({0: [(1, 3, 2.0)]}),
                ScheduledStragglers({0: [(2, 4, 5.0)]}),
            ]
        )
        assert plan.compute_multiplier(ring6, 0, 1) == 2.0
        assert plan.compute_multiplier(ring6, 0, 2) == 10.0
        assert plan.compute_multiplier(ring6, 0, 4) == 5.0

    def test_wrong_clock_type_rejected(self):
        with pytest.raises(TypeError):
            FaultPlan(clocks=ScheduledFailures({1: [(0, 1)]}))
