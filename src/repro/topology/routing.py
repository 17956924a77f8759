"""Hop-count routing over a topology.

The paper defines communication cost as flow size times the number of
*physical hops* the flow traverses (Section II-B). Parameter-server schemes
route worker traffic over the least-hop path to the elected server, so the
cost tracker needs all-pairs shortest-path hop counts; SNAP traffic is always
one hop by construction (neighbors are directly connected).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.topology.graph import Topology
from repro.types import NodeId

#: Sentinel hop count for unreachable node pairs.
UNREACHABLE = -1


def all_pairs_hop_counts(topology: Topology) -> np.ndarray:
    """Dense ``(n, n)`` matrix of shortest-path hop counts.

    Entry ``[i, j]`` is the hop count from ``i`` to ``j``;
    :data:`UNREACHABLE` marks disconnected pairs. Computed by one BFS per
    node, O(n * (n + m)).
    """
    n = topology.n_nodes
    matrix = np.full((n, n), UNREACHABLE, dtype=np.int64)
    for source in range(n):
        matrix[source] = _bfs_distances(topology, source)
    return matrix


def _bfs_distances(topology: Topology, source: NodeId) -> np.ndarray:
    """BFS hop distances from ``source`` (``UNREACHABLE`` where no path)."""
    n = topology.n_nodes
    distances = np.full(n, UNREACHABLE, dtype=np.int64)
    distances[source] = 0
    queue: deque[NodeId] = deque([source])
    while queue:
        node = queue.popleft()
        next_distance = distances[node] + 1
        for neighbor in topology.neighbors(node):
            if distances[neighbor] == UNREACHABLE:
                distances[neighbor] = next_distance
                queue.append(neighbor)
    return distances
