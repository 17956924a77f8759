"""Tests for repro.topology.graph.Topology."""

import networkx as nx
import pytest

from repro.exceptions import TopologyError
from repro.topology.graph import Topology


class TestConstruction:
    def test_basic_properties(self):
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)])
        assert topo.n_nodes == 4
        assert topo.n_edges == 3
        assert topo.edges == ((0, 1), (1, 2), (2, 3))

    def test_duplicate_and_reversed_edges_collapse(self):
        topo = Topology(3, [(0, 1), (1, 0), (0, 1)])
        assert topo.n_edges == 1

    def test_edges_are_canonicalized(self):
        topo = Topology(3, [(2, 0)])
        assert topo.edges == ((0, 2),)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Topology(3, [(1, 1)])

    def test_out_of_range_node_rejected(self):
        with pytest.raises(TopologyError):
            Topology(3, [(0, 3)])

    def test_nonpositive_size_rejected(self):
        with pytest.raises(TopologyError):
            Topology(0, [])

    def test_empty_graph_allowed(self):
        topo = Topology(2, [])
        assert topo.n_edges == 0
        assert not topo.is_connected()


class TestNeighbors:
    def test_neighbor_sets(self):
        topo = Topology(4, [(0, 1), (0, 2), (2, 3)])
        assert topo.neighbors(0) == (1, 2)
        assert topo.neighbors(3) == (2,)
        assert topo.degree(0) == 2
        assert topo.degree(1) == 1

    def test_average_degree(self):
        topo = Topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert topo.average_degree() == pytest.approx(2.0)

    def test_has_edge(self):
        topo = Topology(3, [(0, 1)])
        assert topo.has_edge(0, 1)
        assert topo.has_edge(1, 0)
        assert not topo.has_edge(0, 2)
        assert not topo.has_edge(1, 1)

    def test_has_edge_rejects_unknown_node(self):
        topo = Topology(3, [(0, 1)])
        with pytest.raises(TopologyError):
            topo.has_edge(0, 5)

    def test_neighbors_rejects_unknown_node(self):
        topo = Topology(2, [(0, 1)])
        with pytest.raises(TopologyError):
            topo.neighbors(2)

class TestStructure:
    def test_connectivity(self):
        connected = Topology(3, [(0, 1), (1, 2)])
        disconnected = Topology(3, [(0, 1)])
        assert connected.is_connected()
        assert not disconnected.is_connected()

    def test_networkx_round_trip(self):
        topo = Topology(5, [(0, 1), (1, 2), (3, 4)])
        again = Topology.from_networkx(topo.to_networkx())
        assert again == topo

    def test_from_networkx_relabels_arbitrary_nodes(self):
        graph = nx.Graph()
        graph.add_edges_from([("a", "b"), ("b", "c")])
        topo = Topology.from_networkx(graph)
        assert topo.n_nodes == 3
        assert topo.n_edges == 2

    def test_remove_edges(self):
        topo = Topology(3, [(0, 1), (1, 2)])
        reduced = topo.remove_edges([(2, 1)])
        assert reduced.edges == ((0, 1),)
        # original is untouched (immutability)
        assert topo.n_edges == 2

    def test_equality_and_hash(self):
        a = Topology(3, [(0, 1)])
        b = Topology(3, [(1, 0)])
        c = Topology(3, [(0, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a topology"

    def test_iteration_yields_node_ids(self):
        topo = Topology(4, [(0, 1)])
        assert list(topo) == [0, 1, 2, 3]

    def test_repr_mentions_size(self):
        assert "n_nodes=3" in repr(Topology(3, [(0, 1)]))
