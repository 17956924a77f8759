"""The unified fault plan: one object describing everything that goes wrong.

A :class:`FaultPlan` composes any number of link-failure models, node-failure
models, and a corruption model into a single injectable description of a
hostile network. It is the only fault input of every runtime in the
repository, and the only place a fault is decided:

* the simulator — ``SNAPTrainer(..., fault_plan=plan)``: each engine's
  per-edge wire asks :meth:`FaultPlan.link_up` and
  :meth:`FaultPlan.corrupted` (the vectorized engine asks
  :meth:`FaultPlan.round_failed_links` and the corruption model once per
  round), and the round loop asks :meth:`FaultPlan.failed_nodes`;
* the TCP testbed — ``TestbedRuntime(..., fault_plan=plan)`` makes senders
  skip downed links, damage scheduled frames on the wire (caught by the
  receiver's CRC32 check), and idle through crash spans.

Because every constituent model is deterministic given its seed, the same
plan produces the *same* fault pattern in both runtimes — which is what lets
the chaos tests assert that a networked run under faults stays bit-for-bit
identical to the simulated run under the same plan.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence, Union

from repro.faults.byzantine import ByzantinePlan
from repro.faults.models import ClockSkewModel, CorruptionModel, NoCorruption
from repro.topology.failures import LinkFailureModel, NodeFailureModel
from repro.topology.graph import Topology
from repro.types import Edge

_LinkArg = Union[LinkFailureModel, Sequence[LinkFailureModel], None]
_NodeArg = Union[NodeFailureModel, Sequence[NodeFailureModel], None]
_ClockArg = Union[ClockSkewModel, Sequence[ClockSkewModel], None]


def _as_tuple(value, base_type, label):
    if value is None:
        return ()
    if isinstance(value, base_type):
        return (value,)
    items = tuple(value)
    for item in items:
        if not isinstance(item, base_type):
            raise TypeError(
                f"{label} entries must be {base_type.__name__} instances, "
                f"got {item!r}"
            )
    return items


class FaultPlan(LinkFailureModel, NodeFailureModel):
    """A composable bundle of link outages, node crashes, and corruption.

    Implements both failure-model interfaces itself (the union of its
    constituents), and makes every per-frame fault decision of every
    runtime: :meth:`link_up` (through the per-round memo of
    :meth:`round_failed_links`) and :meth:`corrupted`.

    Parameters
    ----------
    links:
        One link-failure model or a sequence of them; a link is down when
        *any* constituent says so.
    nodes:
        One node-failure model or a sequence of them; a node is down when
        *any* constituent says so.
    corruption:
        Which in-flight frames are damaged (default: none).
    clocks:
        One clock-skew model or a sequence of them; a node's compute-time
        multiplier is the *product* of the constituents' multipliers. Only
        the semi-synchronous engine consumes clocks — synchronous runtimes
        (whose barrier already absorbs any skew) ignore them.
    byzantine:
        Which nodes transmit adversarially poisoned vectors (default:
        none). Consumed by every runtime's send path; pair it with
        ``SNAPConfig(robust_aggregation=...)`` for the defense.
    """

    def __init__(
        self,
        links: _LinkArg = None,
        nodes: _NodeArg = None,
        corruption: CorruptionModel | None = None,
        clocks: _ClockArg = None,
        byzantine: ByzantinePlan | None = None,
    ):
        self.link_models: tuple[LinkFailureModel, ...] = _as_tuple(
            links, LinkFailureModel, "links"
        )
        self.node_models: tuple[NodeFailureModel, ...] = _as_tuple(
            nodes, NodeFailureModel, "nodes"
        )
        if corruption is not None and not isinstance(corruption, CorruptionModel):
            raise TypeError(
                f"corruption must be a CorruptionModel, got {corruption!r}"
            )
        self.corruption: CorruptionModel = (
            corruption if corruption is not None else NoCorruption()
        )
        self.clock_models: tuple[ClockSkewModel, ...] = _as_tuple(
            clocks, ClockSkewModel, "clocks"
        )
        if byzantine is not None and not isinstance(byzantine, ByzantinePlan):
            raise TypeError(
                f"byzantine must be a ByzantinePlan, got {byzantine!r}"
            )
        self.byzantine: ByzantinePlan | None = byzantine
        #: ``(round_index, topology, failed)`` of the last link query.
        self._round_memo: tuple[int, Topology, FrozenSet[Edge]] | None = None

    # -- LinkFailureModel / NodeFailureModel ------------------------------------

    def failed_links(self, topology: Topology, round_index: int) -> FrozenSet[Edge]:
        failed: frozenset[Edge] = frozenset()
        for model in self.link_models:
            failed |= model.failed_links(topology, round_index)
        return failed

    def failed_nodes(self, topology: Topology, round_index: int) -> frozenset[int]:
        down: frozenset[int] = frozenset()
        for model in self.node_models:
            down |= model.failed_nodes(topology, round_index)
        return down

    # -- per-frame decisions -----------------------------------------------------

    def round_failed_links(
        self, topology: Topology, round_index: int
    ) -> FrozenSet[Edge]:
        """:meth:`failed_links` for one round, memoized.

        A runtime asks about O(E) links per round, and some models (the
        Gilbert–Elliott chains) do O(E) work per query, so the answer is
        computed at most once per (round, topology). The topology is matched
        by identity: an adaptive swap installs a new topology object, which
        recomputes the answer even within the same round.
        """
        if not self.link_models:
            return frozenset()
        memo = self._round_memo
        if memo is not None and memo[0] == round_index and memo[1] is topology:
            return memo[2]
        failed = self.failed_links(topology, round_index)
        self._round_memo = (round_index, topology, failed)
        return failed

    def link_up(
        self, topology: Topology, source: int, destination: int, round_index: int
    ) -> bool:
        """Whether the undirected link is available during ``round_index``."""
        if not self.link_models:
            return True
        edge = (min(source, destination), max(source, destination))
        return edge not in self.round_failed_links(topology, round_index)

    def corrupted(
        self, topology: Topology, source: int, destination: int, round_index: int
    ) -> bool:
        """Whether the directed frame is damaged in flight during ``round_index``."""
        return self.corruption.corrupted(topology, source, destination, round_index)

    def compute_multiplier(
        self, topology: Topology, node: int, round_index: int
    ) -> float:
        """Clock-skew factor on ``node``'s compute time (1.0 when unskewed)."""
        multiplier = 1.0
        for model in self.clock_models:
            multiplier *= model.compute_multiplier(topology, node, round_index)
        return multiplier

    def __repr__(self) -> str:
        return (
            f"FaultPlan(links={list(self.link_models)}, "
            f"nodes={list(self.node_models)}, corruption={self.corruption}, "
            f"clocks={list(self.clock_models)}, byzantine={self.byzantine})"
        )
