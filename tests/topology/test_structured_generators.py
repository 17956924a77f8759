"""Tests for the small-world and scale-free topology generators."""

import numpy as np
import pytest

from repro.exceptions import TopologyError
from repro.topology.generators import scale_free_topology, small_world_topology
from repro.topology.routing import all_pairs_hop_counts


class TestSmallWorld:
    def test_connected_with_expected_degree(self):
        topo = small_world_topology(30, base_degree=4, seed=0)
        assert topo.is_connected()
        assert topo.average_degree() == pytest.approx(4.0, abs=0.3)

    def test_deterministic(self):
        a = small_world_topology(20, seed=5)
        b = small_world_topology(20, seed=5)
        assert a == b

    def test_shortcuts_shrink_the_diameter(self):
        lattice = small_world_topology(40, base_degree=4, rewire_probability=0.0, seed=1)
        rewired = small_world_topology(40, base_degree=4, rewire_probability=0.3, seed=1)
        assert all_pairs_hop_counts(rewired).max() < all_pairs_hop_counts(lattice).max()

    def test_odd_base_degree_rejected(self):
        with pytest.raises(TopologyError):
            small_world_topology(20, base_degree=3)

    def test_bad_rewire_probability_rejected(self):
        with pytest.raises(TopologyError):
            small_world_topology(20, rewire_probability=1.5)

    def test_degree_must_fit(self):
        with pytest.raises(TopologyError):
            small_world_topology(4, base_degree=4)


class TestScaleFree:
    def test_connected_with_hub_structure(self):
        topo = scale_free_topology(40, attachments=2, seed=0)
        assert topo.is_connected()
        degrees = sorted(topo.degree(node) for node in topo)
        # a hub exists: max degree well above the median
        assert degrees[-1] >= 3 * degrees[len(degrees) // 2]

    def test_edge_count(self):
        # BA graph with m attachments has ~m*(n - m) edges
        topo = scale_free_topology(30, attachments=2, seed=1)
        assert topo.n_edges == 2 * (30 - 2)

    def test_deterministic(self):
        assert scale_free_topology(15, seed=3) == scale_free_topology(15, seed=3)

    def test_bad_attachments_rejected(self):
        with pytest.raises(TopologyError):
            scale_free_topology(10, attachments=0)
        with pytest.raises(TopologyError):
            scale_free_topology(10, attachments=10)


class TestTrainingOnStructuredTopologies:
    @pytest.mark.parametrize("maker", [small_world_topology, scale_free_topology])
    def test_snap_trains_on_it(self, maker, rng):
        from repro.core import SNAPConfig, SNAPTrainer
        from repro.data.dataset import Dataset
        from repro.data.partition import iid_partition
        from repro.models.ridge import RidgeRegression

        topo = maker(10, seed=7)
        n, p = 200, 3
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p)
        shards = iid_partition(Dataset(X, y), 10, seed=8)
        model = RidgeRegression(p, regularization=0.1)
        trainer = SNAPTrainer(
            model, shards, topo, config=SNAPConfig(compressor="changed_only", seed=0)
        )
        trainer.run(max_rounds=600, stop_on_convergence=False)
        exact = model.solve_exact(X, y)
        np.testing.assert_allclose(trainer.mean_params(), exact, atol=2e-3)
