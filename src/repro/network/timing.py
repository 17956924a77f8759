"""Wall-clock timing model for synchronous training rounds.

The paper's testbed connects servers "through links of 1 Gbps" and drives
rounds off a shared timer sized to "network characteristics (e.g., link
bandwidth)" (Section IV-D). This model turns the byte traces the simulator
records into per-round transfer times, answering the deployment question the
iteration counts alone cannot: *how long would this run take on real links?*

Synchronous-round semantics: within one round, flows that share a (directed)
link serialize; flows on different links run in parallel; the round's
communication makespan is the busiest link's transfer time plus one
propagation latency. Computation is modeled as a fixed per-round cost.

Heterogeneous fleets are expressed through per-node and per-link overrides:
``node_compute_s`` assigns individual servers a different gradient-evaluation
time (a synchronous round always waits for the slowest one) and
``link_bandwidth`` assigns individual directed or undirected links a
different capacity. With both left empty the model is exactly the historical
uniform one. The same model doubles as the event source of the
semi-synchronous engine (:mod:`repro.core.async_engine`): per-node compute
times drive each server's local clock and :meth:`transfer_s` prices every
frame's flight time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping

from repro.exceptions import ConfigurationError
from repro.network.cost import CommunicationCostTracker
from repro.utils.validation import check_non_negative, check_positive

#: The paper's testbed link speed.
GIGABIT_PER_SECOND = 1_000_000_000 / 8  # bytes per second


@dataclass(frozen=True)
class LinkTimingModel:
    """Per-link bandwidth/latency plus per-round compute time.

    Attributes
    ----------
    bandwidth_bytes_per_s:
        Capacity of every (directed) link; defaults to the paper's 1 Gbps.
    latency_s:
        One-way propagation delay added once per round with traffic.
    compute_s_per_round:
        Fixed local-computation time per round (gradient evaluation etc.).
    node_compute_s:
        Optional per-node override of ``compute_s_per_round``, keyed by node
        id. Nodes absent from the dict keep the uniform default. A
        synchronous round's compute term is the *maximum* over all compute
        times (the shared barrier waits for the slowest server).
    link_bandwidth:
        Optional per-link override of ``bandwidth_bytes_per_s``. Keys may be
        directed ``(source, destination)`` pairs or canonical undirected
        ``(min, max)`` pairs; a directed key wins over the undirected one.
    """

    bandwidth_bytes_per_s: float = GIGABIT_PER_SECOND
    latency_s: float = 1e-3
    compute_s_per_round: float = 0.0
    node_compute_s: Mapping[int, float] | None = None
    link_bandwidth: Mapping[tuple[int, int], float] | None = None

    def __post_init__(self) -> None:
        check_positive("bandwidth_bytes_per_s", self.bandwidth_bytes_per_s)
        check_non_negative("latency_s", self.latency_s)
        check_non_negative("compute_s_per_round", self.compute_s_per_round)
        object.__setattr__(
            self, "node_compute_s", dict(self.node_compute_s or {})
        )
        object.__setattr__(
            self,
            "link_bandwidth",
            {tuple(k): v for k, v in (self.link_bandwidth or {}).items()},
        )
        for node, seconds in self.node_compute_s.items():
            if not isinstance(node, int):
                raise ConfigurationError(
                    f"node_compute_s keys must be node ids, got {node!r}"
                )
            check_non_negative(f"node_compute_s[{node}]", seconds)
        for edge, bandwidth in self.link_bandwidth.items():
            if len(edge) != 2:
                raise ConfigurationError(
                    f"link_bandwidth keys must be (source, destination) "
                    f"pairs, got {edge!r}"
                )
            check_positive(f"link_bandwidth[{edge}]", bandwidth)

    # -- heterogeneous lookups --------------------------------------------------

    def compute_time(self, node: int) -> float:
        """Local computation time of one round on ``node``."""
        return self.node_compute_s.get(int(node), self.compute_s_per_round)

    def max_compute_s(self) -> float:
        """The slowest server's compute time — a synchronous round's term."""
        if not self.node_compute_s:
            return self.compute_s_per_round
        return max(self.compute_s_per_round, max(self.node_compute_s.values()))

    def bandwidth(self, source: int, destination: int) -> float:
        """Capacity of one directed link (directed override > undirected > default)."""
        key = (int(source), int(destination))
        if key in self.link_bandwidth:
            return self.link_bandwidth[key]
        canonical = (min(key), max(key))
        return self.link_bandwidth.get(canonical, self.bandwidth_bytes_per_s)

    def transfer_s(
        self, source: int, destination: int, size_bytes: int, hops: int = 1
    ) -> float:
        """Flight time of one frame: propagation latency plus serialization."""
        return self.latency_s + (
            size_bytes * hops / self.bandwidth(source, destination)
        )

    # -- synchronous-round aggregates -------------------------------------------

    def _makespan(self, per_link: Mapping[tuple[int, int], float]) -> float:
        """A round's time from the seconds each link spends transferring."""
        if not per_link:
            return self.max_compute_s()
        return self.max_compute_s() + self.latency_s + max(per_link.values())

    def total_time(self, tracker: CommunicationCostTracker, n_rounds: int) -> float:
        """Wall-clock estimate of a whole run from its recorded flows.

        ``n_rounds`` covers rounds with no traffic (they still pay compute).
        """
        if n_rounds < 0:
            raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
        by_round: dict[int, dict[tuple[int, int], float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for round_index, *columns in tracker.flow_columns():
            per_link = by_round[round_index]
            flows = zip(*(column.tolist() for column in columns))
            for source, destination, size, hops in flows:
                link = (source, destination)
                per_link[link] += size * hops / self.bandwidth(*link)
        total = 0.0
        for round_index in range(1, n_rounds + 1):
            total += self._makespan(by_round.get(round_index, {}))
        return total
