"""Fault models beyond per-round independent sampling.

The models in :mod:`repro.topology.failures` resample every round
independently — fine for Fig. 9's steady-state straggler rate, but real edge
outages are *bursty*: a congested link stays congested for a while, a crashed
server stays down until somebody restarts it, a backhaul cut partitions the
network for minutes. This module adds those temporally correlated faults,
all implementing the same :class:`~repro.topology.failures.LinkFailureModel`
/ :class:`~repro.topology.failures.NodeFailureModel` interfaces. They reach
the simulator and the TCP testbed composed into a
:class:`~repro.faults.plan.FaultPlan`, the one fault input (and the one
place a fault is decided) of every runtime.

Everything is deterministic given its seed: querying the same round twice
returns the same outcome, and a checkpoint-resumed run replays the exact
fault pattern of an uninterrupted one.
"""

from __future__ import annotations

import abc
import threading
from typing import FrozenSet, Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.topology.failures import LinkFailureModel, NodeFailureModel
from repro.topology.graph import Topology
from repro.types import Edge, SeedLike
from repro.utils.rng import keyed_uniforms, make_rng
from repro.utils.validation import check_probability


def _check_round(round_index: int) -> int:
    if round_index < 0:
        raise ConfigurationError(f"round_index must be >= 0, got {round_index}")
    return int(round_index)


class _TwoStateChain:
    """A deterministic per-entity Gilbert–Elliott (good/bad) Markov chain.

    ``n_entities`` independent two-state chains advance in lockstep over
    rounds: a good entity fails with ``p_fail`` per round, a failed entity
    recovers with ``p_recover``. Round 0 draws from the stationary
    distribution, so the long-run failed fraction is
    ``p_fail / (p_fail + p_recover)`` from the very first round. States are
    computed forward once and cached; the cache is guarded by a lock so that
    several threads may query the same chain.
    """

    def __init__(self, p_fail: float, p_recover: float, seed: SeedLike):
        self.p_fail = check_probability("p_fail", p_fail)
        self.p_recover = check_probability("p_recover", p_recover)
        self._root_seed = int(make_rng(seed).integers(0, 2**63 - 1))
        total = self.p_fail + self.p_recover
        self._stationary = self.p_fail / total if total > 0 else 0.0
        self._states: list[np.ndarray] = []
        self._n_entities: int | None = None
        self._lock = threading.Lock()

    def failed_mask(self, n_entities: int, round_index: int) -> np.ndarray:
        """Boolean mask of entities down during ``round_index``."""
        round_index = _check_round(round_index)
        with self._lock:
            if self._n_entities is None:
                self._n_entities = int(n_entities)
            elif self._n_entities != n_entities:
                raise ConfigurationError(
                    f"chain was bound to {self._n_entities} entities, "
                    f"queried with {n_entities}; per-entity burst state is "
                    "not transferable between topologies"
                )
            while len(self._states) <= round_index:
                r = len(self._states)
                draws = make_rng((self._root_seed, r)).random(n_entities)
                if r == 0:
                    down = draws < self._stationary
                else:
                    previous = self._states[r - 1]
                    down = np.where(
                        previous, draws >= self.p_recover, draws < self.p_fail
                    )
                self._states.append(down)
            return self._states[round_index]


class GilbertElliottLinkFailures(LinkFailureModel):
    """Bursty link outages: each link is an independent two-state chain.

    A link in the *good* state fails with probability ``p_fail`` each round;
    a failed link recovers with probability ``p_recover``. The stationary
    unavailable fraction is ``p_fail / (p_fail + p_recover)`` and the mean
    outage burst lasts ``1 / p_recover`` rounds — e.g. ``(0.05, 0.2)`` gives
    20% of links down on average, in bursts of ~5 rounds, versus the
    memoryless per-round resampling of
    :class:`~repro.topology.failures.IndependentLinkFailures`.

    Burst state is tied to the *physical link*, not its position in the
    edge list: the chain binds to the first topology it sees and later
    queries look each edge up by identity. Adaptive topology pruning (see
    :mod:`repro.weights.adaptive`) therefore keeps every surviving link on
    its own chain — a link does not change its outage history because a
    different link was removed. Links absent from the bound topology are
    rejected (the adaptive runtime only prunes).
    """

    def __init__(self, p_fail: float, p_recover: float, seed: SeedLike = None):
        self._chain = _TwoStateChain(p_fail, p_recover, seed)
        self._edge_index: dict[Edge, int] | None = None

    @property
    def stationary_rate(self) -> float:
        """Long-run fraction of links unavailable."""
        return self._chain._stationary

    def failed_links(self, topology: Topology, round_index: int) -> FrozenSet[Edge]:
        if self._edge_index is None:
            self._edge_index = {
                edge: i for i, edge in enumerate(topology.edges)
            }
        index = self._edge_index
        unknown = [edge for edge in topology.edges if edge not in index]
        if unknown:
            raise ConfigurationError(
                f"links {unknown} were not part of the topology this chain "
                "bound to; per-link burst state only transfers to pruned "
                "subtopologies"
            )
        mask = self._chain.failed_mask(len(index), round_index)
        return frozenset(
            edge for edge in topology.edges if mask[index[edge]]
        )

    def __repr__(self) -> str:
        return (
            f"GilbertElliottLinkFailures(p_fail={self._chain.p_fail}, "
            f"p_recover={self._chain.p_recover})"
        )


class MarkovNodeFailures(NodeFailureModel):
    """Bursty server crashes: each node is an independent two-state chain.

    The node analogue of :class:`GilbertElliottLinkFailures`: a crashed
    server stays down for a geometric span of rounds (mean ``1/p_recover``)
    and then resumes from its last state, instead of flapping independently
    every round.
    """

    def __init__(self, p_fail: float, p_recover: float, seed: SeedLike = None):
        self._chain = _TwoStateChain(p_fail, p_recover, seed)

    def failed_nodes(self, topology: Topology, round_index: int) -> frozenset[int]:
        mask = self._chain.failed_mask(topology.n_nodes, round_index)
        return frozenset(int(n) for n in np.flatnonzero(mask))

    def __repr__(self) -> str:
        return (
            f"MarkovNodeFailures(p_fail={self._chain.p_fail}, "
            f"p_recover={self._chain.p_recover})"
        )


class CrashRestartSchedule(NodeFailureModel):
    """Explicit crash/restart spans: node ``i`` is down for whole windows.

    Parameters
    ----------
    outages:
        Mapping ``node_id -> [(start_round, end_round), ...]``; the node is
        down for every round in each inclusive span and resumes afterwards.
        Node ids are validated against the topology on first use.
    """

    def __init__(self, outages: dict[int, Iterable[tuple[int, int]]]):
        self._outages: dict[int, tuple[tuple[int, int], ...]] = {}
        for node, spans in outages.items():
            normalized = []
            for start, end in spans:
                start, end = int(start), int(end)
                if start < 0 or end < start:
                    raise ConfigurationError(
                        f"outage span ({start}, {end}) for node {node} is "
                        "not a valid inclusive round range"
                    )
                normalized.append((start, end))
            self._outages[int(node)] = tuple(sorted(normalized))
        self._validated_for: int | None = None

    def _validate(self, topology: Topology) -> None:
        if self._validated_for == id(topology):
            return
        bad = [n for n in self._outages if not 0 <= n < topology.n_nodes]
        if bad:
            raise ConfigurationError(
                f"crash schedule names nodes {sorted(bad)} outside the "
                f"topology's 0..{topology.n_nodes - 1}"
            )
        self._validated_for = id(topology)

    def failed_nodes(self, topology: Topology, round_index: int) -> frozenset[int]:
        round_index = _check_round(round_index)
        self._validate(topology)
        return frozenset(
            node
            for node, spans in self._outages.items()
            if any(start <= round_index <= end for start, end in spans)
        )

    def __repr__(self) -> str:
        return f"CrashRestartSchedule(nodes={sorted(self._outages)})"


class PartitionSchedule(LinkFailureModel):
    """Network partitions: all links crossing a group boundary go down.

    Parameters
    ----------
    windows:
        List of ``(start_round, end_round, groups)`` entries: during each
        inclusive round span, every topology edge whose endpoints fall in
        *different* groups is unavailable. ``groups`` is a collection of
        disjoint node collections; nodes absent from every group keep all
        their links (they sit on neither side of the cut). Groups are
        validated against the topology on first use.
    """

    def __init__(
        self,
        windows: Sequence[tuple[int, int, Sequence[Sequence[int]]]],
    ):
        self._windows: list[tuple[int, int, tuple[frozenset[int], ...]]] = []
        for start, end, groups in windows:
            start, end = int(start), int(end)
            if start < 0 or end < start:
                raise ConfigurationError(
                    f"partition window ({start}, {end}) is not a valid "
                    "inclusive round range"
                )
            group_sets = tuple(frozenset(int(n) for n in g) for g in groups)
            if len(group_sets) < 2:
                raise ConfigurationError(
                    "a partition needs at least two groups to cut between"
                )
            seen: set[int] = set()
            for group in group_sets:
                overlap = seen & group
                if overlap:
                    raise ConfigurationError(
                        f"partition groups overlap on nodes {sorted(overlap)}"
                    )
                seen |= group
            self._windows.append((start, end, group_sets))
        self._validated_for: int | None = None

    def _validate(self, topology: Topology) -> None:
        if self._validated_for == id(topology):
            return
        for _, _, groups in self._windows:
            for group in groups:
                bad = [n for n in group if not 0 <= n < topology.n_nodes]
                if bad:
                    raise ConfigurationError(
                        f"partition group names nodes {sorted(bad)} outside "
                        f"the topology's 0..{topology.n_nodes - 1}"
                    )
        self._validated_for = id(topology)

    def failed_links(self, topology: Topology, round_index: int) -> FrozenSet[Edge]:
        round_index = _check_round(round_index)
        self._validate(topology)
        failed: set[Edge] = set()
        for start, end, groups in self._windows:
            if not start <= round_index <= end:
                continue
            side = {node: k for k, group in enumerate(groups) for node in group}
            for u, v in topology.edges:
                su, sv = side.get(u), side.get(v)
                if su is not None and sv is not None and su != sv:
                    failed.add((u, v))
        return frozenset(failed)

    def __repr__(self) -> str:
        spans = [(start, end) for start, end, _ in self._windows]
        return f"PartitionSchedule(windows={spans})"


# -- message corruption --------------------------------------------------------


class CorruptionModel(abc.ABC):
    """Interface: which in-flight frames are corrupted.

    Corruption is directional (one frame of the two crossing an undirected
    link can be damaged while the other survives). A corrupted frame still
    consumes wire bytes — it entered the network — but the receiver's CRC
    check rejects it and the straggler rule applies, so corruption never
    delivers wrong values.

    The question comes in two forms that must agree frame for frame:
    :meth:`corrupted` answers for one frame (the per-object runtimes — the
    reference and semi-synchronous engines, the testbed — ask through
    :meth:`FaultPlan.corrupted <repro.faults.plan.FaultPlan.corrupted>` as
    each frame is sent) and :meth:`corrupted_edges` for a whole round's
    frames at once (the vectorized engine asks once per round).
    """

    @abc.abstractmethod
    def corrupted(
        self, topology: Topology, source: int, destination: int, round_index: int
    ) -> bool:
        """Whether the ``source -> destination`` frame of ``round_index`` is damaged."""

    def corrupted_edges(
        self,
        topology: Topology,
        sources: np.ndarray,
        destinations: np.ndarray,
        round_index: int,
    ) -> np.ndarray:
        """Boolean mask over the round's ``sources[i] -> destinations[i]`` frames.

        The default asks :meth:`corrupted` frame by frame; models override
        it with an array-at-a-time answer that is elementwise identical.
        """
        return np.fromiter(
            (
                self.corrupted(topology, source, destination, round_index)
                for source, destination in zip(
                    sources.tolist(), destinations.tolist()
                )
            ),
            dtype=bool,
            count=len(sources),
        )


class NoCorruption(CorruptionModel):
    """Every frame arrives intact (the default)."""

    def corrupted(
        self, topology: Topology, source: int, destination: int, round_index: int
    ) -> bool:
        return False

    def corrupted_edges(
        self,
        topology: Topology,
        sources: np.ndarray,
        destinations: np.ndarray,
        round_index: int,
    ) -> np.ndarray:
        return np.zeros(len(sources), dtype=bool)

    def __repr__(self) -> str:
        return "NoCorruption()"


class IndependentCorruption(CorruptionModel):
    """Each directed frame is corrupted independently with ``rate``.

    Deterministic given the seed, the round, and the directed pair, so the
    simulator and the testbed damage exactly the same frames: the frame's
    uniform is the first double of ``make_rng((seed, round, source,
    destination))``, drawn from a fresh generator per frame or, for a whole
    round, by :func:`repro.utils.rng.keyed_uniforms` — the same bits.
    """

    def __init__(self, rate: float, seed: SeedLike = None):
        self.rate = check_probability("rate", rate)
        self._root_seed = int(make_rng(seed).integers(0, 2**63 - 1))

    def corrupted(
        self, topology: Topology, source: int, destination: int, round_index: int
    ) -> bool:
        round_index = _check_round(round_index)
        if self.rate == 0.0:
            return False
        rng = make_rng((self._root_seed, round_index, source, destination))
        return bool(rng.random() < self.rate)

    def corrupted_edges(
        self,
        topology: Topology,
        sources: np.ndarray,
        destinations: np.ndarray,
        round_index: int,
    ) -> np.ndarray:
        round_index = _check_round(round_index)
        if self.rate == 0.0:
            return np.zeros(len(sources), dtype=bool)
        draws = keyed_uniforms(self._root_seed, round_index, sources, destinations)
        return draws < self.rate

    def __repr__(self) -> str:
        return f"IndependentCorruption(rate={self.rate})"


class ScheduledCorruption(CorruptionModel):
    """Explicit per-round corruption schedule, for deterministic tests.

    Parameters
    ----------
    schedule:
        Mapping ``round_index -> iterable of directed (source, destination)
        pairs`` whose frames are damaged that round. Pairs are validated to
        be topology edges on first use.
    """

    def __init__(self, schedule: dict[int, Iterable[tuple[int, int]]]):
        self._schedule = {
            int(round_index): frozenset((int(s), int(d)) for s, d in pairs)
            for round_index, pairs in schedule.items()
        }
        self._validated_for: int | None = None

    def _validate(self, topology: Topology) -> None:
        if self._validated_for == id(topology):
            return
        for round_index, pairs in self._schedule.items():
            for source, destination in pairs:
                if not topology.has_edge(source, destination):
                    raise ConfigurationError(
                        f"corruption schedule for round {round_index} names "
                        f"({source}, {destination}), which is not a topology edge"
                    )
        self._validated_for = id(topology)

    def corrupted(
        self, topology: Topology, source: int, destination: int, round_index: int
    ) -> bool:
        self._validate(topology)
        return (source, destination) in self._schedule.get(round_index, frozenset())

    def corrupted_edges(
        self,
        topology: Topology,
        sources: np.ndarray,
        destinations: np.ndarray,
        round_index: int,
    ) -> np.ndarray:
        self._validate(topology)
        pairs = self._schedule.get(round_index)
        if not pairs:
            return np.zeros(len(sources), dtype=bool)
        damaged = np.array([(s << 32) | d for s, d in pairs], dtype=np.int64)
        return np.isin((np.asarray(sources) << 32) | destinations, damaged)

    def __repr__(self) -> str:
        return f"ScheduledCorruption(rounds={sorted(self._schedule)})"


class ClockSkewModel(abc.ABC):
    """Interface: per-node, per-round local-clock perturbation.

    The semi-synchronous engine (:mod:`repro.core.async_engine`) derives
    each server's local clock from the timing model's per-node compute time;
    a clock-skew model multiplies that time round by round. A multiplier of
    1 is a healthy clock, 10 is a 10x straggler (Fig. 9's study subject),
    and values below 1 model a server briefly running ahead. Multipliers
    never gate *whether* work happens — only when it finishes — so they
    compose freely with the link/node failure models above.
    """

    @abc.abstractmethod
    def compute_multiplier(
        self, topology: Topology, node: int, round_index: int
    ) -> float:
        """Factor applied to ``node``'s compute time during its local round."""


class NoClockSkew(ClockSkewModel):
    """Every clock runs true (the default)."""

    def compute_multiplier(
        self, topology: Topology, node: int, round_index: int
    ) -> float:
        return 1.0

    def __repr__(self) -> str:
        return "NoClockSkew()"


class ScheduledStragglers(ClockSkewModel):
    """Explicit straggler spans: node ``i`` runs ``factor``x slow for windows.

    Parameters
    ----------
    spans:
        Mapping ``node_id -> [(start_round, end_round, factor), ...]``; the
        node's compute time is multiplied by ``factor`` for every local
        round in each inclusive span. A mapping value may also be a single
        number, shorthand for "slowed for the whole run".
    """

    def __init__(self, spans: dict[int, object]):
        self._spans: dict[int, tuple[tuple[int, int, float], ...]] = {}
        for node, windows in spans.items():
            if isinstance(windows, (int, float)):
                windows = [(0, 2**62, float(windows))]
            normalized = []
            for start, end, factor in windows:
                start, end, factor = int(start), int(end), float(factor)
                if start < 0 or end < start:
                    raise ConfigurationError(
                        f"straggler span ({start}, {end}) for node {node} is "
                        "not a valid inclusive round range"
                    )
                if factor <= 0:
                    raise ConfigurationError(
                        f"straggler factor must be > 0, got {factor} for "
                        f"node {node}"
                    )
                normalized.append((start, end, factor))
            self._spans[int(node)] = tuple(sorted(normalized))
        self._validated_for: int | None = None

    def _validate(self, topology: Topology) -> None:
        if self._validated_for == id(topology):
            return
        bad = [n for n in self._spans if not 0 <= n < topology.n_nodes]
        if bad:
            raise ConfigurationError(
                f"straggler schedule names nodes {sorted(bad)} outside the "
                f"topology's 0..{topology.n_nodes - 1}"
            )
        self._validated_for = id(topology)

    def compute_multiplier(
        self, topology: Topology, node: int, round_index: int
    ) -> float:
        round_index = _check_round(round_index)
        self._validate(topology)
        multiplier = 1.0
        for start, end, factor in self._spans.get(int(node), ()):
            if start <= round_index <= end:
                multiplier *= factor
        return multiplier

    def __repr__(self) -> str:
        return f"ScheduledStragglers(nodes={sorted(self._spans)})"


class RandomClockSkew(ClockSkewModel):
    """Log-normal per-(node, round) clock jitter, deterministic per seed.

    Each local round's compute time is multiplied by
    ``exp(sigma * z)`` with ``z ~ N(0, 1)`` drawn from a stream keyed by
    ``(seed, node, round)`` — the same node/round always jitters the same
    way, so semi-synchronous runs stay replayable.
    """

    def __init__(self, sigma: float, seed: SeedLike = None):
        if sigma < 0:
            raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
        self.sigma = float(sigma)
        self._root_seed = int(make_rng(seed).integers(0, 2**63 - 1))

    def compute_multiplier(
        self, topology: Topology, node: int, round_index: int
    ) -> float:
        round_index = _check_round(round_index)
        if self.sigma == 0.0:
            return 1.0
        rng = make_rng((self._root_seed, int(node), round_index))
        return float(np.exp(self.sigma * rng.standard_normal()))

    def __repr__(self) -> str:
        return f"RandomClockSkew(sigma={self.sigma})"
