"""Graceful-degradation tests: training survives chaos, and says so.

Covers the simulator half of the fault-tolerance story: per-round
staleness/connectivity observability (corrupted frames included), the partition
warn/abort guard, the straggler-rule algebra under total link loss, and the
headline chaos claim — bursty outages plus crash/restart servers cost
almost no accuracy.
"""

import warnings

import numpy as np
import pytest

import repro.core.trainer as trainer_module
from repro.core import SNAPConfig, SNAPTrainer
from repro.core.config import StragglerStrategy
from repro.core.engine import DeliveredEdges
from repro.core.trainer import _delivered_graph_connected
from repro.faults import (
    CrashRestartSchedule,
    FaultPlan,
    GilbertElliottLinkFailures,
    ScheduledCorruption,
)
from repro.simulation.experiments import credit_svm_workload
from repro.topology.failures import IndependentLinkFailures, ScheduledFailures
from repro.topology.generators import ring_topology
from repro.topology.graph import Topology
from repro.weights.construction import metropolis_weights


class TestObservability:
    @pytest.fixture
    def setup(self, rng):
        topo = ring_topology(4)
        n, p = 80, 3
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p)
        from repro.data.dataset import Dataset
        from repro.data.partition import iid_partition
        from repro.models.ridge import RidgeRegression

        shards = iid_partition(Dataset(X, y), 4, seed=0)
        model = RidgeRegression(p, regularization=0.1)
        return model, shards, topo

    def test_clean_rounds_report_no_staleness(self, setup):
        model, shards, topo = setup
        trainer = SNAPTrainer(
            model, shards, topo, config=SNAPConfig(alpha=0.05, seed=0)
        )
        result = trainer.run(max_rounds=5, stop_on_convergence=False)
        for record in result.rounds:
            assert record.stale_links == 0
            assert record.max_staleness == 0
            assert record.connected

    def test_outage_raises_staleness_then_recovery_clears_it(self, setup):
        model, shards, topo = setup
        plan = FaultPlan(
            links=ScheduledFailures({2: [(0, 1)], 3: [(0, 1)]})
        )
        trainer = SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(alpha=0.05, seed=0),
            fault_plan=plan,
        )
        result = trainer.run(max_rounds=5, stop_on_convergence=False)
        by_round = {r.round_index: r for r in result.rounds}
        assert by_round[1].stale_links == 0
        # Both directions of the downed link go stale for rounds 2-3.
        assert by_round[2].stale_links == 2
        assert by_round[2].max_staleness == 1
        assert by_round[3].stale_links == 2
        assert by_round[3].max_staleness == 2
        # Link restored: the next delivery resets the age.
        assert by_round[4].stale_links == 0
        assert by_round[4].max_staleness == 0
        # A single downed ring link never partitions the ring.
        assert all(r.connected for r in result.rounds)
        assert trainer.link_staleness[(0, 1)] == 0

    def test_corrupted_frames_count_as_stale_links(self, setup):
        model, shards, topo = setup
        plan = FaultPlan(corruption=ScheduledCorruption({2: [(0, 1)]}))
        trainer = SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(alpha=0.05, seed=0),
            fault_plan=plan,
        )
        result = trainer.run(max_rounds=3, stop_on_convergence=False)
        by_round = {r.round_index: r for r in result.rounds}
        assert by_round[2].stale_links == 1  # only the damaged direction
        assert by_round[3].stale_links == 0


class TestDeliveredGraphConnectivity:
    """``_delivered_graph_connected``: the full-delivery short cut and the
    component count it skips must give the same answers."""

    RING = [(0, 1), (1, 2), (2, 3), (3, 0)]

    def _forms(self, pairs):
        """The two layouts engines hand over: contiguous columns (the
        vectorized round) and ``from_pairs``' strided ones (the per-edge
        rounds)."""
        strided = DeliveredEdges.from_pairs(list(pairs))
        return (
            DeliveredEdges(strided.sources.copy(), strided.destinations.copy()),
            strided,
        )

    def test_full_delivery_builds_no_graph(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("graph built although every link delivered")

        monkeypatch.setattr(trainer_module, "connected_components", boom)
        directed = self.RING + [(v, u) for u, v in self.RING]
        for delivered in self._forms(directed):
            assert _delivered_graph_connected(4, 8, delivered)

    def test_partial_delivery_still_counts_components(self):
        directed = self.RING + [(v, u) for u, v in self.RING]
        # One direction of every link still spans the ring...
        for delivered in self._forms(self.RING):
            assert _delivered_graph_connected(4, 8, delivered)
        # ...two opposite links down split it...
        split = [p for p in directed if set(p) not in ({0, 1}, {2, 3})]
        for delivered in self._forms(split):
            assert not _delivered_graph_connected(4, 8, delivered)
        # ...and a crashed server is not a partition of the live ones.
        alive = [p for p in directed if 3 not in p]
        for delivered in self._forms(alive):
            assert _delivered_graph_connected(4, 8, delivered, frozenset({3}))
            assert not _delivered_graph_connected(4, 8, delivered)


class TestPartitionGuard:
    @pytest.fixture
    def setup(self, rng):
        from repro.data.dataset import Dataset
        from repro.data.partition import iid_partition
        from repro.models.ridge import RidgeRegression

        topo = ring_topology(4)
        X = rng.normal(size=(80, 3))
        y = X @ rng.normal(size=3)
        shards = iid_partition(Dataset(X, y), 4, seed=0)
        return RidgeRegression(3, regularization=0.1), shards, topo

    def _partition_plan(self, first_round, last_round):
        # Cut the 4-ring into {0,1} | {2,3}: severs (1,2) and (0,3).
        from repro.faults import PartitionSchedule

        return FaultPlan(
            links=PartitionSchedule(
                [(first_round, last_round, [[0, 1], [2, 3]])]
            )
        )

    def test_sustained_partition_warns(self, setup):
        model, shards, topo = setup
        trainer = SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(alpha=0.05, seed=0),
            fault_plan=self._partition_plan(1, 15),
        )
        with pytest.warns(RuntimeWarning, match="partitioned"):
            result = trainer.run(max_rounds=12, stop_on_convergence=False)
        assert not any(r.connected for r in result.rounds)

    def test_short_partition_does_not_warn(self, setup):
        model, shards, topo = setup
        trainer = SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(alpha=0.05, seed=0),
            fault_plan=self._partition_plan(2, 4),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = trainer.run(max_rounds=8, stop_on_convergence=False)
        flags = [r.connected for r in result.rounds]
        assert flags == [True, False, False, False, True, True, True, True]


class TestTotalLinkLossProperty:
    @pytest.mark.chaos
    def test_reweight_under_total_link_loss_equals_independent_runs(self, rng):
        """With every link down and the REWEIGHT straggler rule, each server
        collapses to an independent single-node EXTRA run: the round's
        effective mixing matrix is the identity, so the network must produce
        exactly what N isolated trainers produce."""
        from repro.data.dataset import Dataset
        from repro.data.partition import iid_partition
        from repro.models.ridge import RidgeRegression

        n_servers, p = 4, 3
        X = rng.normal(size=(120, p))
        y = X @ rng.normal(size=p) + 0.05 * rng.normal(size=120)
        shards = iid_partition(Dataset(X, y), n_servers, seed=1)
        model = RidgeRegression(p, regularization=0.1)
        topo = ring_topology(n_servers)
        init = model.init_params(seed=3)
        rounds = 8  # below the partition-warning streak

        config = SNAPConfig(
            alpha=0.05,
            seed=0,
            compressor="changed_only",
            straggler_strategy=StragglerStrategy.REWEIGHT,
        )
        networked = SNAPTrainer(
            model,
            shards,
            topo,
            config=config,
            fault_plan=FaultPlan(links=IndependentLinkFailures(1.0, seed=0)),
            weight_matrix=metropolis_weights(topo),
            initial_params=init,
        )
        networked.run(max_rounds=rounds, stop_on_convergence=False)

        for node in range(n_servers):
            solo = SNAPTrainer(
                model,
                [shards[node]],
                Topology(1, []),
                config=SNAPConfig(
                    alpha=0.05,
                    seed=0,
                    compressor="changed_only",
                ),
                weight_matrix=np.array([[1.0]]),
                initial_params=init,
            )
            solo.run(max_rounds=rounds, stop_on_convergence=False)
            np.testing.assert_allclose(
                networked.servers[node].params,
                solo.servers[0].params,
                rtol=1e-9,
                atol=1e-12,
            )


class TestChaosAccuracy:
    @pytest.mark.chaos
    @pytest.mark.timeout(300)
    def test_bursty_outages_and_crashes_cost_under_two_accuracy_points(self):
        """The acceptance bar: Gilbert–Elliott outages at a stationary 20%
        down-rate plus two servers crash/restarting for 10-round spans leave
        final accuracy within 2 points of the fault-free run (same seed)."""
        workload = credit_svm_workload(
            n_servers=8, average_degree=3, n_train=1200, n_test=400, seed=11
        )
        rounds = 150

        def run(fault_plan):
            trainer = SNAPTrainer(
                workload.model,
                workload.shards,
                workload.topology,
                config=SNAPConfig(seed=0),
                fault_plan=fault_plan,
            )
            with warnings.catch_warnings():
                # A long burst can transiently partition the delivered
                # graph; that is the scenario under test, not a failure.
                warnings.simplefilter("ignore", RuntimeWarning)
                return trainer.run(
                    max_rounds=rounds,
                    test_set=workload.test_set,
                    stop_on_convergence=False,
                )

        clean = run(None)
        plan = FaultPlan(
            links=GilbertElliottLinkFailures(
                p_fail=0.05, p_recover=0.2, seed=7  # stationary 20% down
            ),
            nodes=CrashRestartSchedule({1: [(20, 29)], 3: [(60, 69)]}),
        )
        faulty = run(plan)

        # The chaos actually bit: links went stale somewhere along the way.
        assert any(r.stale_links > 0 for r in faulty.rounds)
        assert faulty.final_accuracy == pytest.approx(
            clean.final_accuracy, abs=0.02
        )
