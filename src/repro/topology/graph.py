"""The :class:`Topology` class: an immutable undirected edge-server graph."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

import networkx as nx
import numpy as np

from repro.exceptions import TopologyError
from repro.types import Edge, NodeId


class Topology:
    """An undirected graph over edge servers ``0 .. n_nodes-1``.

    Nodes are always the contiguous integers ``0 .. n_nodes-1`` so that the
    adjacency structure lines up with the rows of the stacked parameter matrix
    ``x`` and of the weight matrix ``W`` (Section III-A).

    Parameters
    ----------
    n_nodes:
        Number of edge servers.
    edges:
        Iterable of ``(u, v)`` pairs. Self-loops are rejected; duplicate and
        reversed pairs collapse to a single undirected edge.
    """

    def __init__(self, n_nodes: int, edges: Iterable[Edge]):
        if n_nodes <= 0:
            raise TopologyError(f"n_nodes must be > 0, got {n_nodes}")
        self._n_nodes = int(n_nodes)
        canonical: set[Edge] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise TopologyError(f"self-loop ({u}, {v}) is not allowed")
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise TopologyError(
                    f"edge ({u}, {v}) references a node outside 0..{n_nodes - 1}"
                )
            canonical.add((min(u, v), max(u, v)))
        self._edges: tuple[Edge, ...] = tuple(sorted(canonical))
        self._neighbors: tuple[tuple[NodeId, ...], ...] = self._build_neighbors()

    def _build_neighbors(self) -> tuple[tuple[NodeId, ...], ...]:
        adj: list[list[NodeId]] = [[] for _ in range(self._n_nodes)]
        for u, v in self._edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    # -- basic accessors ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of edge servers."""
        return self._n_nodes

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Sorted tuple of undirected edges, each stored as ``(u, v)`` with ``u < v``."""
        return self._edges

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return len(self._edges)

    def neighbors(self, node: NodeId) -> tuple[NodeId, ...]:
        """The neighbor set :math:`B_i` of ``node``, sorted ascending."""
        self._check_node(node)
        return self._neighbors[node]

    def degree(self, node: NodeId) -> int:
        """Node degree (size of the neighbor set)."""
        self._check_node(node)
        return len(self._neighbors[node])

    def average_degree(self) -> float:
        """Mean node degree, ``2 * n_edges / n_nodes``."""
        return 2.0 * self.n_edges / self.n_nodes

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether ``u`` and ``v`` are direct neighbors."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            return False
        return v in self._neighbors[u]

    @cached_property
    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Every directed link as read-only int64 ``(src, dst)`` columns.

        Ordered by source, then destination: the order the reference engine
        sends in, and the row order of every per-link array (the vectorized
        engine's edge rows, ``EngineState``'s edge columns, the staleness
        ledger). :meth:`edge_rows` inverts it.
        """
        degrees = [len(neighbors) for neighbors in self._neighbors]
        src = np.repeat(np.arange(self._n_nodes, dtype=np.int64), degrees)
        dst = np.fromiter(
            (j for neighbors in self._neighbors for j in neighbors),
            dtype=np.int64,
            count=src.size,
        )
        src.flags.writeable = dst.flags.writeable = False
        return src, dst

    @cached_property
    def _directed_keys(self) -> np.ndarray:
        src, dst = self.directed_edges
        return src * self._n_nodes + dst

    def edge_rows(self, src, dst) -> np.ndarray:
        """The row of each link ``(src[k], dst[k])`` in :attr:`directed_edges`.

        ``-1`` for any pair that is not a link: a self pair, a non-neighbor
        pair, or a node outside ``0 .. n_nodes-1``.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        keys = self._directed_keys
        if not keys.size:
            return np.full(np.broadcast(src, dst).shape, -1, dtype=np.int64)
        n = self._n_nodes
        wanted = src * n + dst
        rows = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        in_range = (0 <= src) & (src < n) & (0 <= dst) & (dst < n)
        return np.where((keys[rows] == wanted) & in_range, rows, -1)

    def _check_node(self, node: NodeId) -> None:
        if not 0 <= node < self._n_nodes:
            raise TopologyError(f"node {node} outside 0..{self._n_nodes - 1}")

    def __iter__(self) -> Iterator[NodeId]:
        return iter(range(self._n_nodes))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self._n_nodes == other._n_nodes and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n_nodes, self._edges))

    def __repr__(self) -> str:
        return (
            f"Topology(n_nodes={self._n_nodes}, n_edges={self.n_edges}, "
            f"avg_degree={self.average_degree():.2f})"
        )

    # -- structure ---------------------------------------------------------

    def is_connected(self) -> bool:
        """Whether the graph is connected (required for consensus to mix)."""
        return nx.is_connected(self.to_networkx())

    def to_networkx(self) -> nx.Graph:
        """Export to a :class:`networkx.Graph` (nodes ``0..n-1``)."""
        graph = nx.Graph()
        graph.add_nodes_from(range(self._n_nodes))
        graph.add_edges_from(self._edges)
        return graph

    @classmethod
    def from_networkx(cls, graph: nx.Graph) -> "Topology":
        """Build a topology from any networkx graph by relabelling nodes to 0..n-1."""
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in graph.edges()]
        return cls(len(nodes), edges)

    def remove_edges(self, removed: Iterable[Edge]) -> "Topology":
        """Return a copy with ``removed`` edges deleted (used by failure models)."""
        removed_set = {(min(u, v), max(u, v)) for u, v in removed}
        kept = [e for e in self._edges if e not in removed_set]
        return Topology(self._n_nodes, kept)
