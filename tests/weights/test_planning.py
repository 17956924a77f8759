"""Tests for repro.weights.planning (Section IV-D neighbor-set planning)."""

import numpy as np
import pytest

from repro.exceptions import TopologyError
from repro.weights.planning import plan_neighbor_sets
from repro.weights.validation import check_weight_matrix


class TestPlanNeighborSets:
    def test_zero_threshold_keeps_complete_graph_support(self):
        plan = plan_neighbor_sets(6, weight_threshold=0.0, iterations=60)
        assert plan.kept_edges == 15
        assert plan.topology.n_edges == 15

    def test_pruned_topology_is_connected_and_matrix_feasible(self):
        plan = plan_neighbor_sets(8, weight_threshold=0.02, iterations=60)
        assert plan.topology.is_connected()
        check_weight_matrix(plan.weight_matrix, plan.topology)

    def test_higher_threshold_prunes_more(self):
        loose = plan_neighbor_sets(8, weight_threshold=0.005, iterations=60)
        tight = plan_neighbor_sets(8, weight_threshold=0.05, iterations=60)
        assert tight.kept_edges <= loose.kept_edges

    def test_excessive_threshold_rejected(self):
        with pytest.raises(TopologyError):
            plan_neighbor_sets(8, weight_threshold=0.9, iterations=40)

    def test_reports_present(self):
        plan = plan_neighbor_sets(6, weight_threshold=0.02, iterations=60)
        assert plan.report.rate_score > 0
        assert plan.dense_report.rate_score > 0

    def test_single_node_rejected(self):
        with pytest.raises(TopologyError):
            plan_neighbor_sets(1)

    def test_planned_network_trains(self, rng):
        """End-to-end: a planned topology actually supports a SNAP run."""
        from repro.core import SNAPConfig, SNAPTrainer
        from repro.data.dataset import Dataset
        from repro.data.partition import iid_partition
        from repro.models.ridge import RidgeRegression

        plan = plan_neighbor_sets(5, weight_threshold=0.02, iterations=60)
        n, p = 150, 3
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p)
        shards = iid_partition(Dataset(X, y), 5, seed=0)
        model = RidgeRegression(p, regularization=0.1)
        trainer = SNAPTrainer(
            model,
            shards,
            plan.topology,
            config=SNAPConfig(compressor="changed_only", seed=0),
            weight_matrix=plan.weight_matrix,
        )
        trainer.run(max_rounds=600, stop_on_convergence=False)
        exact = model.solve_exact(X, y)
        np.testing.assert_allclose(trainer.mean_params(), exact, atol=1e-3)
