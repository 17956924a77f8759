"""Server-outage behaviour of the SNAP trainer (Section IV-D, "server shut down")."""

import numpy as np
import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.faults import CrashRestartSchedule, FaultPlan
from repro.models.ridge import RidgeRegression
from repro.topology.failures import IndependentNodeFailures
from repro.topology.generators import random_topology


@pytest.fixture
def setup(rng):
    n, p = 200, 3
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + 0.1 * rng.normal(size=n)
    shards = iid_partition(Dataset(X, y), 6, seed=0)
    model = RidgeRegression(p, regularization=0.1)
    topo = random_topology(6, 3.0, seed=1)
    return model, shards, topo


def build(setup, nodes=None):
    model, shards, topo = setup
    return SNAPTrainer(
        model,
        shards,
        topo,
        config=SNAPConfig(compressor="changed_only", seed=0),
        fault_plan=FaultPlan(nodes=nodes),
    )


class TestModels:
    def test_no_failures_default(self, setup):
        model, shards, topo = setup
        trainer = SNAPTrainer(model, shards, topo, config=SNAPConfig(seed=0))
        assert isinstance(trainer.fault_plan, FaultPlan)
        assert trainer.fault_plan.node_models == ()
        assert trainer.fault_plan.failed_nodes(topo, 1) == frozenset()

    def test_independent_model_is_seeded_and_rate_calibrated(self, setup):
        _, _, topo = setup
        model = IndependentNodeFailures(0.25, seed=3)
        total = sum(len(model.failed_nodes(topo, r)) for r in range(400))
        assert total / (400 * topo.n_nodes) == pytest.approx(0.25, abs=0.03)
        assert model.failed_nodes(topo, 7) == model.failed_nodes(topo, 7)


class TestDownedServerSemantics:
    def test_downed_server_does_not_step(self, setup):
        trainer = build(setup, CrashRestartSchedule({0: [(2, 2)]}))
        trainer.run(max_rounds=3, stop_on_convergence=False)
        # server 0 missed round 2: 2 local iterations instead of 3
        assert trainer.servers[0].iteration == 2
        assert trainer.servers[1].iteration == 3

    def test_downed_server_sends_and_receives_nothing(self, setup):
        model, shards, topo = setup
        victim = 0
        trainer = build(setup, CrashRestartSchedule({victim: [(2, 2)]}))
        trainer.run(max_rounds=3, stop_on_convergence=False)
        for record in trainer.tracker.records():
            if record.round_index == 2:
                assert record.source != victim
                assert record.destination != victim

    def test_blackout_round_of_all_servers_costs_nothing(self, setup):
        _, _, topo = setup
        trainer = build(setup, CrashRestartSchedule({node: [(2, 2)] for node in range(6)}))
        result = trainer.run(max_rounds=4, stop_on_convergence=False)
        assert result.rounds[1].bytes_sent == 0
        assert result.rounds[0].bytes_sent > 0

    def test_recovered_server_heals_and_training_converges(self, setup):
        model, shards, _ = setup
        trainer = build(
            setup, CrashRestartSchedule({1: [(3, 3), (4, 4), (5, 5)]})
        )
        trainer.run(max_rounds=800, stop_on_convergence=False)
        exact = model.solve_exact(
            np.concatenate([s.X for s in shards]),
            np.concatenate([s.y for s in shards]),
        )
        gap = np.linalg.norm(trainer.mean_params() - exact)
        assert gap < 0.1 * np.linalg.norm(exact)

    def test_random_outages_do_not_crash_and_stay_finite(self, setup):
        trainer = build(setup, IndependentNodeFailures(0.3, seed=9))
        result = trainer.run(max_rounds=40, stop_on_convergence=False)
        assert result.n_rounds == 40
        assert np.all(np.isfinite(trainer.stacked_params()))

    def test_outages_slow_but_do_not_stop_learning(self, setup):
        healthy = build(setup).run(max_rounds=60, stop_on_convergence=False)
        flaky = build(setup, IndependentNodeFailures(0.2, seed=5)).run(
            max_rounds=60, stop_on_convergence=False
        )
        # both learn (loss decreases a lot) ...
        assert flaky.loss_trace()[-1] < 0.7 * flaky.loss_trace()[0]
        # ... and the healthy run is at least as far along
        assert healthy.loss_trace()[-1] <= flaky.loss_trace()[-1] + 1e-9
