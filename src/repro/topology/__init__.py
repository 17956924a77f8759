"""Edge-network topology substrate.

A :class:`~repro.topology.graph.Topology` describes which edge servers are
neighbors (Section II-B of the paper): vertices are edge servers, edges are
one-hop connections (wireless links between collocated base stations or
persistent TCP connections). Generators build the random networks used in the
large-scale simulations; routing computes the hop counts used for the
hop-weighted communication-cost metric; failure models inject the link
outages behind the straggler experiment (Fig. 9).
"""

from repro.topology.graph import Topology
from repro.topology.generators import (
    HierarchicalTopology,
    complete_topology,
    grid_topology,
    hierarchical_topology,
    random_regular_topology,
    random_topology,
    ring_topology,
    scale_free_topology,
    small_world_topology,
    star_topology,
)
from repro.topology.routing import (
    UNREACHABLE,
    all_pairs_hop_counts,
)
from repro.topology.failures import (
    IndependentLinkFailures,
    IndependentNodeFailures,
    LinkFailureModel,
    NodeFailureModel,
    ScheduledFailures,
)

__all__ = [
    "Topology",
    "HierarchicalTopology",
    "complete_topology",
    "grid_topology",
    "hierarchical_topology",
    "random_regular_topology",
    "random_topology",
    "ring_topology",
    "scale_free_topology",
    "small_world_topology",
    "star_topology",
    "UNREACHABLE",
    "all_pairs_hop_counts",
    "LinkFailureModel",
    "IndependentLinkFailures",
    "ScheduledFailures",
    "NodeFailureModel",
    "IndependentNodeFailures",
]
