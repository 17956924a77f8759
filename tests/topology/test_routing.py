"""Tests for repro.topology.routing."""

import networkx as nx
import numpy as np

from repro.topology.generators import complete_topology, ring_topology
from repro.topology.graph import Topology
from repro.topology.routing import UNREACHABLE, all_pairs_hop_counts


class TestHopCount:
    def test_path_graph_distances(self):
        hops = all_pairs_hop_counts(Topology(4, [(0, 1), (1, 2), (2, 3)]))
        assert hops[0].tolist() == [0, 1, 2, 3]

    def test_unreachable(self):
        assert all_pairs_hop_counts(Topology(3, [(0, 1)]))[0, 2] == UNREACHABLE

    def test_ring_wraps_around(self):
        hops = all_pairs_hop_counts(ring_topology(6))
        assert hops[0, 3] == 3
        assert hops[0, 5] == 1


class TestAllPairs:
    def test_matches_pairwise_and_is_symmetric(self):
        topo = Topology(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        matrix = all_pairs_hop_counts(topo)
        lengths = dict(nx.all_pairs_shortest_path_length(topo.to_networkx()))
        for u in topo:
            for v in topo:
                assert matrix[u, v] == lengths[u][v]
        np.testing.assert_array_equal(matrix, matrix.T)

    def test_diagonal_is_zero(self):
        matrix = all_pairs_hop_counts(complete_topology(4))
        np.testing.assert_array_equal(np.diag(matrix), np.zeros(4))

    def test_complete_graph_all_ones_off_diagonal(self):
        matrix = all_pairs_hop_counts(complete_topology(4))
        off = matrix[~np.eye(4, dtype=bool)]
        assert set(off.tolist()) == {1}

    def test_disconnected_pairs_marked(self):
        topo = Topology(4, [(0, 1), (2, 3)])
        matrix = all_pairs_hop_counts(topo)
        assert matrix[0, 2] == UNREACHABLE
        assert matrix[1, 3] == UNREACHABLE

