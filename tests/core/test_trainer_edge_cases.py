"""Edge cases of the SNAP trainer: tiny networks, tiny models, odd configs."""

import numpy as np
import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.models.ridge import RidgeRegression
from repro.topology.graph import Topology


class TestTwoNodeNetwork:
    """The smallest consensus problem: two servers, one link."""

    @pytest.fixture
    def two_node(self, rng):
        n, p = 80, 2
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + 0.05 * rng.normal(size=n)
        shards = iid_partition(Dataset(X, y), 2, seed=0)
        model = RidgeRegression(p, regularization=0.1)
        topo = Topology(2, [(0, 1)])
        exact = model.solve_exact(X, y)
        return model, shards, topo, exact

    def test_converges_to_pooled_optimum(self, two_node):
        model, shards, topo, exact = two_node
        trainer = SNAPTrainer(
            model, shards, topo, config=SNAPConfig(compressor="changed_only", seed=0)
        )
        trainer.run(max_rounds=2000, stop_on_convergence=False)
        np.testing.assert_allclose(trainer.mean_params(), exact, atol=1e-4)

    def test_each_server_has_one_neighbor(self, two_node):
        model, shards, topo, _ = two_node
        trainer = SNAPTrainer(model, shards, topo, config=SNAPConfig(seed=0))
        assert trainer.servers[0].neighbors == (1,)
        assert trainer.servers[1].neighbors == (0,)


class TestOneParameterModel:
    def test_scalar_model_trains(self, rng):
        n = 60
        X = rng.normal(size=(n, 1))
        y = 3.0 * X[:, 0]
        shards = iid_partition(Dataset(X, y), 3, seed=0)
        model = RidgeRegression(1, regularization=1e-6, fit_intercept=False)
        from repro.topology.generators import complete_topology

        trainer = SNAPTrainer(
            model,
            shards,
            complete_topology(3),
            config=SNAPConfig(compressor="changed_only", seed=0),
        )
        trainer.run(max_rounds=800, stop_on_convergence=False)
        assert trainer.mean_params()[0] == pytest.approx(3.0, abs=1e-3)


class TestTinyShards:
    def test_single_sample_shards(self, rng):
        """Each server holds exactly one sample — the extreme federated case."""
        p = 2
        X = rng.normal(size=(4, p))
        y = rng.normal(size=4)
        shards = iid_partition(Dataset(X, y), 4, seed=0)
        assert all(s.n_samples == 1 for s in shards)
        model = RidgeRegression(p, regularization=0.5)
        from repro.topology.generators import complete_topology

        trainer = SNAPTrainer(
            model,
            shards,
            complete_topology(4),
            config=SNAPConfig(compressor="changed_only", seed=0),
        )
        trainer.run(max_rounds=1500, stop_on_convergence=False)
        exact = model.solve_exact(X, y)
        np.testing.assert_allclose(trainer.mean_params(), exact, atol=1e-4)


class TestConfigurationCorners:
    @pytest.fixture
    def basic(self, rng):
        n, p = 90, 2
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        shards = iid_partition(Dataset(X, y), 3, seed=0)
        from repro.topology.generators import complete_topology

        return RidgeRegression(p), shards, complete_topology(3)

    def test_eval_every_beyond_budget_means_only_final_accuracy(self, basic, rng):
        from repro.models.svm import LinearSVM

        p = 2
        X = rng.normal(size=(60, p))
        y = np.where(X @ rng.normal(size=p) > 0, 1.0, -1.0)
        shards = iid_partition(Dataset(X, y), 3, seed=0)
        from repro.topology.generators import complete_topology

        trainer = SNAPTrainer(
            LinearSVM(p), shards, complete_topology(3), config=SNAPConfig(seed=0)
        )
        result = trainer.run(
            max_rounds=4,
            test_set=Dataset(X, y),
            eval_every=100,
            stop_on_convergence=False,
        )
        assert all(r.accuracy is None for r in result.rounds)
        assert result.final_accuracy is not None

    def test_explicit_alpha_bypasses_auto_selection(self, basic):
        model, shards, topo = basic
        trainer = SNAPTrainer(
            model, shards, topo, config=SNAPConfig(alpha=0.0123, seed=0)
        )
        assert trainer.alpha == 0.0123

    def test_round_records_are_internally_consistent(self, basic):
        model, shards, topo = basic
        trainer = SNAPTrainer(model, shards, topo, config=SNAPConfig(seed=0))
        result = trainer.run(max_rounds=6, stop_on_convergence=False)
        for record in result.rounds:
            assert record.bytes_sent >= 0
            assert record.cost >= record.bytes_sent  # hops >= 1
            assert record.params_sent >= 0
            assert np.isfinite(record.mean_loss)
        assert result.total_bytes == sum(r.bytes_sent for r in result.rounds)
        assert result.total_cost == sum(r.cost for r in result.rounds)

    def test_rounds_completed_advances_across_run_calls(self, basic):
        model, shards, topo = basic
        trainer = SNAPTrainer(model, shards, topo, config=SNAPConfig(seed=0))
        trainer.run(max_rounds=3, stop_on_convergence=False)
        assert trainer.rounds_completed == 3
        result = trainer.run(max_rounds=2, stop_on_convergence=False)
        assert trainer.rounds_completed == 5
        assert [r.round_index for r in result.rounds] == [4, 5]
