"""Straggler behaviour of the SNAP trainer (Section IV-D, Fig. 9)."""

import numpy as np
import pytest

from repro.consensus.convergence import ConvergenceDetector
from repro.core.config import SNAPConfig
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.faults import FaultPlan
from repro.models.ridge import RidgeRegression
from repro.topology.failures import IndependentLinkFailures, ScheduledFailures
from repro.topology.generators import random_topology


@pytest.fixture
def setup(rng):
    n, p = 200, 3
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + 0.1 * rng.normal(size=n)
    dataset = Dataset(X, y)
    topo = random_topology(6, 3.0, seed=4)
    shards = iid_partition(dataset, 6, seed=5)
    model = RidgeRegression(p, regularization=0.1)
    return model, shards, topo


class TestScheduledOutages:
    def test_one_failed_round_is_survived(self, setup):
        """A full blackout under the paper's stale rule leaves a small bias.

        The stale values leak mass out of the doubly-stochastic mixing, so
        exact convergence is lost — but the run stays close to the optimum
        (the bias is proportional to the one missed round's deltas).
        """
        model, shards, topo = setup
        failures = ScheduledFailures({3: list(topo.edges)})  # total blackout round 3
        trainer = SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(compressor="changed_only", seed=0),
            fault_plan=FaultPlan(links=failures),
        )
        trainer.run(max_rounds=800, stop_on_convergence=False)
        exact = model.solve_exact(
            np.concatenate([s.X for s in shards]),
            np.concatenate([s.y for s in shards]),
        )
        gap = np.linalg.norm(trainer.mean_params() - exact)
        assert gap < 0.5 * np.linalg.norm(exact)

    def test_reweight_strategy_removes_blackout_bias(self, setup):
        """The REWEIGHT ablation keeps every round doubly stochastic."""
        from repro.core.config import StragglerStrategy

        model, shards, topo = setup
        failures = ScheduledFailures({3: list(topo.edges)})
        gaps = {}
        exact = model.solve_exact(
            np.concatenate([s.X for s in shards]),
            np.concatenate([s.y for s in shards]),
        )
        for strategy in (StragglerStrategy.STALE, StragglerStrategy.REWEIGHT):
            trainer = SNAPTrainer(
                model,
                shards,
                topo,
                config=SNAPConfig(
                    compressor="changed_only",
                    straggler_strategy=strategy,
                    seed=0,
                ),
                fault_plan=FaultPlan(links=ScheduledFailures({3: list(topo.edges)})),
            )
            trainer.run(max_rounds=800, stop_on_convergence=False)
            gaps[strategy] = np.linalg.norm(trainer.mean_params() - exact)
        assert gaps[StragglerStrategy.REWEIGHT] < 1e-3
        assert gaps[StragglerStrategy.REWEIGHT] < gaps[StragglerStrategy.STALE] / 10

    def test_blackout_round_costs_nothing(self, setup):
        model, shards, topo = setup
        failures = ScheduledFailures({2: list(topo.edges)})
        trainer = SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(compressor="changed_only", seed=0),
            fault_plan=FaultPlan(links=failures),
        )
        result = trainer.run(max_rounds=5, stop_on_convergence=False)
        assert result.rounds[1].bytes_sent == 0  # round 2 blacked out
        assert result.rounds[0].bytes_sent > 0

    def test_missed_update_is_retransmitted(self, setup):
        """After a failed round, the next successful send heals the neighbor."""
        model, shards, topo = setup
        u, v = topo.edges[0]
        failures = ScheduledFailures({1: [(u, v)], 2: [], 3: []})
        trainer = SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(compressor="changed_only", seed=0),
            fault_plan=FaultPlan(links=failures),
        )
        trainer.run(max_rounds=3, stop_on_convergence=False)
        # After round 3 with no failures, v's view of u equals u's params.
        np.testing.assert_allclose(
            trainer.servers[v].views[u], trainer.servers[u].params, atol=1e-12
        )


class TestRandomOutages:
    def test_low_failure_rate_still_converges_near_optimum(self, setup):
        model, shards, topo = setup
        trainer = SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(compressor="changed_only", seed=0),
            fault_plan=FaultPlan(links=IndependentLinkFailures(0.01, seed=1)),
        )
        trainer.run(max_rounds=800, stop_on_convergence=False)
        exact = model.solve_exact(
            np.concatenate([s.X for s in shards]),
            np.concatenate([s.y for s in shards]),
        )
        gap = np.linalg.norm(trainer.mean_params() - exact)
        assert gap < 0.05

    def test_failures_slow_progress_to_a_loss_target(self, setup):
        model, shards, topo = setup

        def rounds_to_target(rate):
            fault_plan = FaultPlan(
                links=IndependentLinkFailures(rate, seed=2) if rate > 0 else None
            )
            trainer = SNAPTrainer(
                model,
                shards,
                topo,
                config=SNAPConfig(compressor="changed_only", seed=0),
                fault_plan=fault_plan,
            )
            # target: 5% above the no-failure long-run loss
            exact = model.solve_exact(
                np.concatenate([s.X for s in shards]),
                np.concatenate([s.y for s in shards]),
            )
            target = 1.05 * np.mean(
                [model.loss(exact, s.X, s.y) for s in shards]
            )
            result = trainer.run(
                max_rounds=600,
                detector=ConvergenceDetector(target_loss=target),
            )
            return result.iterations_to_converge

        assert rounds_to_target(0.0) <= rounds_to_target(0.10)

    def test_heavy_failures_do_not_crash(self, setup):
        model, shards, topo = setup
        trainer = SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(seed=0),
            fault_plan=FaultPlan(links=IndependentLinkFailures(0.5, seed=3)),
        )
        result = trainer.run(max_rounds=30, stop_on_convergence=False)
        assert result.n_rounds == 30
        assert np.all(np.isfinite(trainer.mean_params()))
