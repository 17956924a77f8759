"""Link re-adds: restoring pruned links bounded to the wired base graph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SNAPConfig
from repro.exceptions import TopologyError
from repro.topology.graph import Topology
from repro.weights import readd_links
from repro.weights.adaptive import TopologyController, prune_links
from repro.weights.optimizer import optimize_weight_matrix


def ring_with_chords(n: int, chords) -> Topology:
    return Topology(n, [(i, (i + 1) % n) for i in range(n)] + list(chords))


BASE = ring_with_chords(8, [(0, 2), (0, 4), (2, 6)])


class TestReaddLinks:
    def test_restores_missing_base_edges_in_order(self):
        pruned = BASE.remove_edges([(0, 4), (0, 2)])
        grown, added = readd_links(pruned, ((0, 4), (0, 2)), BASE)
        assert added == ((0, 2), (0, 4))
        assert set(grown.edges) == set(BASE.edges)

    def test_present_candidates_are_skipped(self):
        grown, added = readd_links(BASE, ((0, 2),), BASE)
        assert added == ()
        assert grown is BASE  # no change: the same object comes back

    def test_candidates_outside_the_base_are_rejected(self):
        pruned = BASE.remove_edges([(0, 2)])
        with pytest.raises(TopologyError, match="outside the base topology"):
            readd_links(pruned, ((3, 7),), BASE)

    def test_unordered_endpoints_are_canonicalized(self):
        pruned = BASE.remove_edges([(0, 4)])
        _, added = readd_links(pruned, ((4, 0),), BASE)
        assert added == ((0, 4),)


class TestForcedPruning:
    def test_forced_edges_drop_regardless_of_weight(self):
        result = optimize_weight_matrix(BASE, iterations=80)
        # Threshold 0 would prune nothing; forcing overrides the weight test.
        pruned, removed = prune_links(
            BASE, result.matrix, 0.0, forced=((0, 2),)
        )
        assert removed == ((0, 2),)
        assert (0, 2) not in pruned.edges

    def test_forced_non_edges_are_rejected(self):
        matrix = np.eye(BASE.n_nodes)
        with pytest.raises(TopologyError, match="not a topology edge"):
            prune_links(BASE, matrix, 0.0, forced=((3, 7),))

    def test_connectivity_guard_overrides_forcing(self):
        # On a tree every edge is a bridge: forcing cannot break the graph.
        tree = Topology(4, [(0, 1), (1, 2), (2, 3)])
        matrix = np.eye(4)
        pruned, removed = prune_links(
            tree, matrix, 0.0, forced=((0, 1), (1, 2))
        )
        assert removed == ()
        assert pruned.edges == tree.edges

    def test_forcing_every_edge_of_a_node_keeps_one(self):
        result = optimize_weight_matrix(BASE, iterations=80)
        incident = tuple(e for e in BASE.edges if 0 in e)
        pruned, removed = prune_links(BASE, result.matrix, 0.0, forced=incident)
        assert len(pruned.neighbors(0)) >= 1
        assert len(removed) == len(incident) - len(pruned.neighbors(0))
        assert pruned.is_connected()


class TestControllerReadds:
    def make_controller(self):
        result = optimize_weight_matrix(BASE, iterations=80)
        config = SNAPConfig(
            adaptive_topology=True,
            topology_reoptimize_every=10_000,
            topology_prune_threshold=0.0,
        )
        return TopologyController(BASE, result, config)

    def test_pruned_ever_tracks_the_readd_pool(self):
        controller = self.make_controller()
        swap = controller.propose(
            5, reason="membership", drop_candidates=((0, 2), (0, 4))
        )
        assert set(swap.pruned_edges) == {(0, 2), (0, 4)}
        assert controller.pruned_ever == {(0, 2), (0, 4)}
        assert controller.readd_candidates({0}) == ((0, 2), (0, 4))
        assert controller.readd_candidates({4}) == ((0, 4),)
        assert controller.readd_candidates({3}) == ()

    def test_readding_shrinks_the_pool_and_records_the_swap(self):
        controller = self.make_controller()
        controller.propose(
            5, reason="membership", drop_candidates=((0, 2), (0, 4))
        )
        swap = controller.propose(
            9, reason="membership", add_candidates=((0, 4),)
        )
        assert swap.added_edges == ((0, 4),)
        assert swap.pruned_edges == ()
        assert (0, 4) in controller.topology.edges
        assert controller.pruned_ever == {(0, 2)}
        assert swap.solver_steps > 0  # the edge set changed: a warm re-solve ran
        assert controller.summary()["added_edges"] == 1

    def test_readded_matrix_is_valid_for_the_grown_topology(self):
        from repro.weights.validation import check_weight_matrix

        controller = self.make_controller()
        controller.propose(
            5, reason="membership", drop_candidates=((0, 2), (0, 4))
        )
        swap = controller.propose(
            9, reason="membership", add_candidates=((0, 2), (0, 4))
        )
        check_weight_matrix(swap.result.matrix, swap.topology)
        assert set(swap.topology.edges) == set(BASE.edges)

    def test_readd_outside_base_is_rejected(self):
        controller = self.make_controller()
        with pytest.raises(TopologyError, match="outside the base topology"):
            controller.propose(
                5, reason="membership", add_candidates=((3, 7),)
            )
