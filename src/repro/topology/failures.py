"""Link-failure models for the straggler experiment (Fig. 9).

The paper injects temporary link outages: in each iteration a fraction of
links is unavailable, the affected servers simply reuse the latest parameters
previously received from those neighbors, and training continues. A failure
model answers one question per round: *which undirected links are down?*
"""

from __future__ import annotations

import abc
from typing import FrozenSet

from repro.exceptions import ConfigurationError
from repro.topology.graph import Topology
from repro.types import Edge, SeedLike
from repro.utils.rng import make_rng
from repro.utils.validation import check_probability


class LinkFailureModel(abc.ABC):
    """Interface: per-round sampling of failed (unavailable) links."""

    @abc.abstractmethod
    def failed_links(self, topology: Topology, round_index: int) -> FrozenSet[Edge]:
        """Return the set of undirected edges that are down during ``round_index``.

        Edges are canonical ``(u, v)`` pairs with ``u < v``. A failed link is
        bidirectional: neither endpoint receives the other's update that round.
        """


class IndependentLinkFailures(LinkFailureModel):
    """Each link fails independently with probability ``failure_rate`` each round.

    This is the model behind Fig. 9: "when there are 1% of the links
    unavailable" corresponds to ``failure_rate=0.01``. Sampling is
    deterministic given the seed and the round index, so repeated queries for
    the same round return the same outage set.
    """

    def __init__(self, failure_rate: float, seed: SeedLike = None):
        self.failure_rate = check_probability("failure_rate", failure_rate)
        self._root_seed = int(make_rng(seed).integers(0, 2**63 - 1))

    def failed_links(self, topology: Topology, round_index: int) -> FrozenSet[Edge]:
        if round_index < 0:
            raise ConfigurationError(f"round_index must be >= 0, got {round_index}")
        if self.failure_rate == 0.0:
            return frozenset()
        rng = make_rng((self._root_seed, round_index))
        draws = rng.random(topology.n_edges)
        return frozenset(
            edge for edge, draw in zip(topology.edges, draws) if draw < self.failure_rate
        )

    def __repr__(self) -> str:
        return f"IndependentLinkFailures(failure_rate={self.failure_rate})"


class NodeFailureModel(abc.ABC):
    """Interface: per-round sampling of *servers* that are down.

    Section IV-D lists "server shut down" alongside link congestion as a
    straggler cause. A downed server computes nothing that round and sends
    nothing; its neighbors fall back to their cached views exactly as for a
    link failure. It resumes from its last state when it comes back.
    """

    @abc.abstractmethod
    def failed_nodes(self, topology: Topology, round_index: int) -> frozenset[int]:
        """Return the set of node ids that are down during ``round_index``."""


class IndependentNodeFailures(NodeFailureModel):
    """Each server is down independently with probability ``failure_rate``.

    Deterministic given the seed and round index, like
    :class:`IndependentLinkFailures`.
    """

    def __init__(self, failure_rate: float, seed: SeedLike = None):
        self.failure_rate = check_probability("failure_rate", failure_rate)
        self._root_seed = int(make_rng(seed).integers(0, 2**63 - 1))

    def failed_nodes(self, topology: Topology, round_index: int) -> frozenset[int]:
        if round_index < 0:
            raise ConfigurationError(f"round_index must be >= 0, got {round_index}")
        if self.failure_rate == 0.0:
            return frozenset()
        rng = make_rng((self._root_seed, round_index))
        draws = rng.random(topology.n_nodes)
        return frozenset(
            node for node in range(topology.n_nodes) if draws[node] < self.failure_rate
        )

    def __repr__(self) -> str:
        return f"IndependentNodeFailures(failure_rate={self.failure_rate})"


class ScheduledFailures(LinkFailureModel):
    """Explicit per-round outage schedule, for deterministic tests.

    Parameters
    ----------
    schedule:
        Mapping ``round_index -> iterable of edges`` that are down that round.
        Rounds absent from the mapping have no failures. Scheduled edges are
        validated against the topology on first use: an edge that does not
        exist would otherwise silently no-op, making a test believe it
        exercised an outage that never happened.
    """

    def __init__(self, schedule: dict[int, list[Edge]]):
        self._schedule = {
            int(round_index): frozenset((min(u, v), max(u, v)) for u, v in edges)
            for round_index, edges in schedule.items()
        }
        self._validated_for: int | None = None

    def _validate(self, topology: Topology) -> None:
        if self._validated_for == id(topology):
            return
        known = set(topology.edges)
        for round_index, edges in self._schedule.items():
            bad = sorted(edge for edge in edges if edge not in known)
            if bad:
                raise ConfigurationError(
                    f"link-failure schedule for round {round_index} names "
                    f"edges {bad} that are not in the topology"
                )
        self._validated_for = id(topology)

    def failed_links(self, topology: Topology, round_index: int) -> FrozenSet[Edge]:
        self._validate(topology)
        return self._schedule.get(round_index, frozenset())

    def __repr__(self) -> str:
        return f"ScheduledFailures(rounds={sorted(self._schedule)})"
