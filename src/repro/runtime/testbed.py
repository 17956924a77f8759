"""The networked testbed: N edge servers on real TCP sockets, one event loop.

Reproduces the paper's small-scale testbed setup: servers hold *persistent*
connections to their neighbors (Section II-B) and exchange binary Fig. 3
frames every round, synchronized by a shared clock (Section IV-D). Every
server has its own listener and connections; one loop, on the thread that
calls :meth:`TestbedRuntime.run`, drives them all. It is an engine under
``SNAPTrainer.run``: per round (1) ``round_down`` applies crash requests and
the single membership decision, (2) ``step_round`` steps every live server,
(3) ``communicate`` lets each ``advance_views`` and ``send_round`` over its
outbound sockets, pumps one ``selectors`` selector — listeners, inbound
links, outbound links with queued bytes — until every expected frame is
applied or the round's deadline expires (:meth:`TestbedRuntime.barrier_wait`,
the shared clock's tick), then books misses. Nothing on the loop
blocks on a peer: sockets are non-blocking, unsent bytes wait in their
connection's out-buffer, and a retry back-off is a due time the selector's
timeout honors, never a sleep. Delivery order is the loop's, not the OS
scheduler's.

Algorithmic state is the same :class:`~repro.core.server.EdgeServer` and
:class:`~repro.core.ape.APESchedule` machinery the simulator uses (built by
an internal :class:`~repro.core.SNAPTrainer`), and a node's sending round
*is* the simulator's — ``SNAPTrainer.send_round`` with one TCP frame
(:meth:`_Node._transmit`) as its wire — so a testbed run is bit-for-bit
identical to a simulated run on the same inputs — the correspondence the
integration tests assert.

Fault tolerance
---------------

The testbed degrades instead of deadlocking:

* A :class:`~repro.faults.FaultPlan` injects the same deterministic link
  outages, node-down spans, and frame corruption the simulator applies, so
  a faulty networked run still matches the faulty simulated run
  bit-for-bit. Plan-downed servers idle through their rounds; senders skip
  downed links; scheduled frames are damaged on the wire and rejected by
  the receiver's CRC32 check.
* ``round_deadline_s`` bounds how long a round waits for frames. A neighbor
  that misses the deadline is handled by the paper's straggler rule
  (Section IV-D): the receiver keeps its cached view and the round
  proceeds. ``dead_after_misses`` consecutive misses mark the peer dead —
  the receiver stops budgeting wait time for it until a frame from it
  arrives again.
* :meth:`TestbedRuntime.crash` (or ``crash_schedule``) kills a server hard:
  its sockets close abruptly, peers observe EOF/ECONNRESET mid-run and
  immediately fall back to cached views, and the survivors keep making
  progress.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
import weakref
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.config import SNAPConfig
from repro.core.engine import DeliveredEdges, Engine
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.exceptions import (
    ConfigurationError,
    FrameCorruptionError,
    ProtocolError,
)
from repro.faults.plan import FaultPlan
from repro.models.base import Model
from repro.network.cost import FlowBatch
from repro.runtime.transport import (
    HEADER_BYTES,
    FrameConnection,
    RetryPolicy,
)
from repro.topology.graph import Topology
from repro.types import Params, WeightMatrix

#: Seconds wiring, or in strict mode a round's frames, may take before the run is dead.
DEFAULT_TIMEOUT_S = 30.0

#: Consecutive missed round deadlines before a peer is considered dead.
DEFAULT_DEAD_AFTER_MISSES = 3

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE

#: Peer id of a listener, and of an inbound link before its hello. Selector
#: data is ``(node id, peer id, node, connection)``, sorted on to order events.
_UNKNOWN = -1


@dataclass
class TestbedResult:
    """Outcome of a networked run.

    Attributes
    ----------
    final_params:
        Stacked ``(N, P)`` per-server parameters after the last round
        (crashed servers contribute their state at the moment they died).
    mean_loss_trace:
        Per-round mean of the servers' local losses (over the servers still
        alive that round).
    per_round_payload_bytes:
        Fig. 3 payload bytes that crossed sockets each round (the quantity
        the paper's testbed measures).
    payload_bytes_total:
        Sum of the above.
    header_bytes_total:
        Transport-header overhead (not part of the paper's accounting).
    n_rounds:
        Rounds executed.
    link_staleness:
        Final per-directed-link staleness (rounds since the destination last
        applied a fresh update from the source): the trainer's ledger.
    stale_view_rounds:
        Per directed link, how many rounds the destination *started* with
        a view of the source older than the previous round (judged by the
        sender round of the newest applied frame, not by delivery). This
        is the straggler ledger the semi-synchronous simulator engine
        keeps — directly comparable with ``stale_view_rounds`` in
        :meth:`repro.core.async_engine.SemiSyncEngine.timing_summary`.
    dead_nodes:
        Servers that hard-crashed during the run.
    corrupt_frames_total:
        Frames that arrived but were rejected by the CRC32 integrity check.
    """

    __test__ = False

    final_params: np.ndarray
    mean_loss_trace: list[float]
    per_round_payload_bytes: list[int]
    payload_bytes_total: int
    header_bytes_total: int
    n_rounds: int
    link_staleness: dict = field(default_factory=dict)
    stale_view_rounds: dict = field(default_factory=dict)
    dead_nodes: frozenset = frozenset()
    corrupt_frames_total: int = 0


def _dial(port: int, node_id: int, timeout_s: float) -> socket.socket:
    """Connect to a listener and introduce ourselves (the 4-byte hello)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout_s)
    sock.sendall(int(node_id).to_bytes(4, "big"))
    sock.setblocking(False)
    return sock


class _Node:
    """Runtime wrapper around one EdgeServer: its sockets and link ledgers.

    Nothing here refers back to the runtime (or, from a re-dial factory, to
    the node), so a finished runtime is freed by refcount.
    """

    def __init__(self, server, flows, fault_plan, topology):
        self.server = server
        #: The fleet's round batch of sent frames (stage ``"testbed"``),
        #: booked into the trainer's tracker at every round barrier.
        self.flows = flows
        #: The trainer's plan and live topology (re-pointed by every swap).
        self.fault_plan = fault_plan
        self.topology = topology
        #: Physical peers: the base-topology neighbor set at wiring time.
        #: Sockets span this superset for the life of the run; the
        #: *algorithmic* neighbor set (``server.neighbors``) may shrink and
        #: regrow inside it under elastic membership, so a re-added link
        #: never needs a new connection.
        self.link_peers: tuple[int, ...] = tuple(server.neighbors)
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(len(self.link_peers) + 1)
        self.listener.setblocking(False)
        self.port = self.listener.getsockname()[1]
        self.send_connections: dict[int, FrameConnection] = {}
        self.recv_connections: list[FrameConnection] = []
        self.loss_trace: list[float] = []
        self.payload_bytes = 0
        self.frames_sent = 0
        #: Sender round of the newest frame applied from each in-neighbor.
        self.last_applied_round: dict[int, int] = dict.fromkeys(self.link_peers, 0)
        #: Rounds this node *started* with a stale view of each in-neighbor
        #: (view version older than the previous round) — the semi-sync
        #: engine's straggler ledger, mirrored for testbed runs.
        self.stale_view_rounds: dict[int, int] = dict.fromkeys(self.link_peers, 0)
        #: Consecutive rounds each in-neighbor missed the round deadline.
        self.miss_streak: dict[int, int] = dict.fromkeys(self.link_peers, 0)
        #: Per-peer frame epoch: frames built before this round are stale
        #: leftovers from before a topology swap re-seeded the link, and
        #: are dropped instead of applied.
        self.link_epoch: dict[int, int] = {}
        #: Peers believed gone (EOF seen or too many missed deadlines).
        self.dead_peers: set[int] = set()
        #: In-neighbors whose inbound link has not said hello yet (wiring).
        self.unwired: set[int] = set(self.link_peers)
        #: In-neighbors the current round still waits for, and those it
        #: applied frames from → the parameter values they carried.
        self.waiting: set[int] = set()
        self.applied: dict[int, int] = {}
        self.corrupt_frames = 0

    def connect_to_neighbors(
        self, ports: dict[int, int], retry_policy: RetryPolicy, timeout_s: float
    ) -> None:
        """Open one persistent outbound connection per physical peer."""
        for neighbor in self.link_peers:
            dial = partial(_dial, ports[neighbor], self.server.node_id, timeout_s)
            self.send_connections[neighbor] = FrameConnection(
                dial(),
                peer=f"server {neighbor}",
                reconnect=dial,
                retry_policy=retry_policy,
            )

    # -- the per-round protocol -------------------------------------------------

    def step(self, round_index: int) -> None:
        """Ledger view ages as the round starts, take the step, record the loss."""
        server = self.server
        # Same rule as the semi-sync engine's _note_staleness: peers we
        # have written off are excluded, like its degraded edges.
        for neighbor in self.stale_view_rounds:
            if neighbor in self.dead_peers or neighbor not in server.views:
                continue
            if (round_index - 1) - self.last_applied_round[neighbor] > 0:
                self.stale_view_rounds[neighbor] += 1
        server.step()
        self.loss_trace.append(server.local_loss())

    def _transmit(self, source: int, neighbor: int, message, stage) -> bool:
        """This node's wire for :meth:`SNAPTrainer.send_round`: one TCP frame.

        A plan-failed link drops the update — already built, so APE
        suppression statistics match the simulator — before any bytes enter
        the network. A plan-corrupted frame still counts its payload bytes:
        the bits crossed even though the receiver's CRC rejects them,
        exactly how the simulator's engines charge corrupted deliveries.
        A peer that proves unreachable is marked dead; the straggler rule
        covers the missing update.
        """
        plan = self.fault_plan
        round_index = message.round_index
        link = (self.topology, source, neighbor, round_index)
        if not plan.link_up(*link):
            return False
        corrupt = plan.corrupted(*link)
        connection = self.send_connections[neighbor]
        try:
            if corrupt:
                sent = connection.send_corrupted(message)
            else:
                sent = connection.send_update(message)
        except ProtocolError:
            # Retries (and reconnect attempts) exhausted: the peer is gone.
            self.dead_peers.add(neighbor)
            return False
        self.payload_bytes += sent
        self.frames_sent += 1
        self.flows.add(source, neighbor, sent, "testbed")
        return not corrupt

    def expect_senders(self, round_index: int, offline: frozenset) -> None:
        """Await this round's frames — not from offline, cut-off or dead peers."""
        plan, node_id = self.fault_plan, self.server.node_id
        self.waiting = {
            neighbor
            for neighbor in self.server.neighbors
            if neighbor not in offline
            and neighbor not in self.dead_peers
            and plan.link_up(self.topology, neighbor, node_id, round_index)
        }

    def deliver(self, frame, round_index: int) -> None:
        """Apply one arrived frame; a CRC failure leaves the cached view in use."""
        server = self.server
        self.waiting.discard(frame.sender)
        if isinstance(frame, FrameCorruptionError):
            self.corrupt_frames += 1
            return
        sender = frame.sender
        if frame.round_index > round_index:
            raise ProtocolError(
                f"node {server.node_id} got a round-{frame.round_index} "
                f"frame during round {round_index}"
            )
        if (
            sender not in server.views
            or frame.round_index < self.link_epoch.get(sender, 0)
        ):
            # Leftover frame across a topology swap: the sender is no
            # longer an algorithmic neighbor, or the frame was built
            # before the link was re-seeded (applying a pre-swap delta
            # to a seeded view would corrupt it). Drop it.
            return
        # A frame from an earlier round (a straggler catching up) is
        # still the newest information from that peer — apply it, per
        # the paper's reuse-the-latest-received rule.
        server.receive_update(frame)
        self.last_applied_round[sender] = max(
            self.last_applied_round[sender], frame.round_index
        )
        self.applied[sender] = self.applied.get(sender, 0) + frame.n_sent
        self.dead_peers.discard(sender)
        self.miss_streak[sender] = 0

    def end_round(self, dead_after_misses: int | None) -> None:
        """Book the round: a sender still waited for missed the deadline (after
        enough consecutive misses it is written off)."""
        for neighbor in self.waiting:
            self.miss_streak[neighbor] += 1
            if (
                dead_after_misses is not None
                and self.miss_streak[neighbor] >= dead_after_misses
            ):
                self.dead_peers.add(neighbor)
        self.waiting.clear()
        self.applied.clear()

    def close(self) -> None:
        """Close every socket — abruptly, so live peers see EOF/ECONNRESET."""
        for connection in (*self.send_connections.values(), *self.recv_connections):
            connection.close()
        self.listener.close()


class TestbedRuntime(Engine):
    """Run SNAP over real localhost TCP sockets.

    Accepts the same inputs as :class:`~repro.core.SNAPTrainer` (which it
    uses internally to build the weight matrix, step size, servers, and APE
    schedules, and whose round loop drives it), plus the fault-tolerance
    knobs below. A ``config.engine`` other than ``"reference"`` is refused:
    the testbed *is* the engine, and it runs lock-step rounds (the
    semi-sync knobs are already refused by ``SNAPConfig`` off
    ``engine="semisync"``).

    Parameters
    ----------
    fault_plan:
        Deterministic chaos to inject (link outages, node-down spans, frame
        corruption, byzantine senders) — the same plan drives the
        simulator, so faulty runs stay comparable bit-for-bit.
    timeout_s:
        Hard ceiling on wiring and (in strict mode) on a round's wait for
        frames; exceeding it kills the run.
    round_deadline_s:
        Soft per-round receive budget. ``None`` (default) is strict mode —
        a missing frame is a protocol error, the pre-fault-tolerance
        behavior. A number enables graceful degradation: neighbors that
        miss the deadline are handled by the straggler rule.
    dead_after_misses:
        Consecutive missed deadlines before a peer is written off as dead
        (``None`` = never). A frame arriving from a dead peer revives it.
    crash_schedule:
        ``{round_index: iterable of node ids}`` — servers to hard-crash at
        the *start* of the given round (sockets closed abruptly, no
        goodbye), exercising the EOF/ECONNRESET paths end to end.
    retry_policy:
        Transport retry schedule for sends (defaults to a fast schedule
        suited to localhost).
    membership:
        Optional elastic-membership source (duck-typed; in practice an
        :class:`repro.orchestrator.OrchestratedMembership` bridge). Must
        provide ``bind(runtime)`` — called once at construction — and
        ``decide(round_index)`` returning an object with ``active``
        (the ids participating this round), ``swap`` (an optional
        :class:`~repro.weights.adaptive.TopologySwap` to apply at the
        boundary), and ``stop``. The loop calls ``decide`` exactly once
        per round, before any server steps, treats non-active slots as
        idle, applies the swap through the trainer, and stops the run
        cleanly when ``stop`` is set. ``None`` (default) is the static
        fleet: behavior is bit-for-bit the pre-orchestrator runtime.
    """

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(
        self,
        model: Model,
        shards: list[Dataset],
        topology: Topology,
        config: SNAPConfig | None = None,
        weight_matrix: WeightMatrix | None = None,
        initial_params: Params | None = None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        fault_plan: FaultPlan | None = None,
        round_deadline_s: float | None = None,
        dead_after_misses: int | None = DEFAULT_DEAD_AFTER_MISSES,
        crash_schedule: dict[int, object] | None = None,
        retry_policy: RetryPolicy | None = None,
        membership: object | None = None,
    ):
        # Everything the testbed refuses is refused before the weight solve.
        config = config if config is not None else SNAPConfig()
        if config.engine != "reference":
            raise ConfigurationError(
                f"engine must be 'reference' on the testbed (the testbed is "
                f"the engine), got {config.engine!r}"
            )
        if timeout_s <= 0:
            raise ConfigurationError(f"timeout_s must be > 0, got {timeout_s}")
        if round_deadline_s is not None and round_deadline_s <= 0:
            raise ConfigurationError(
                f"round_deadline_s must be > 0, got {round_deadline_s}"
            )
        if dead_after_misses is not None and dead_after_misses <= 0:
            raise ConfigurationError(
                f"dead_after_misses must be > 0, got {dead_after_misses}"
            )
        self.crash_schedule: dict[int, frozenset[int]] = {}
        for round_index, nodes in (crash_schedule or {}).items():
            crashed = frozenset(map(int, [nodes] if isinstance(nodes, int) else nodes))
            bad = sorted(crashed - set(topology))
            if bad:
                raise ConfigurationError(
                    f"crash_schedule round {round_index} names nodes {bad} "
                    f"outside the topology"
                )
            self.crash_schedule[int(round_index)] = crashed
        self.timeout_s = float(timeout_s)
        self.round_deadline_s = (
            float(round_deadline_s) if round_deadline_s is not None else None
        )
        self.dead_after_misses = dead_after_misses
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=3, backoff_base_s=0.02, backoff_max_s=0.2)
        )
        trainer = SNAPTrainer(
            model,
            shards,
            topology,
            config=config,
            weight_matrix=weight_matrix,
            initial_params=initial_params,
            fault_plan=fault_plan,
        )
        # A proxy: runtime → trainer stays the one strong edge (no cycle).
        trainer.engine = weakref.proxy(self)
        self._trainer = trainer
        self._flows = FlowBatch()
        self.nodes = [
            _Node(server, self._flows, trainer.fault_plan, trainer.topology)
            for server in trainer.servers
        ]
        #: Nodes that have not crashed, in id order.
        self._live = list(self.nodes)
        #: This round's idle slots, and the peers nobody sends to (idle or plan-downed).
        self._inactive: frozenset = frozenset()
        self._offline: frozenset = frozenset()
        self._selector: selectors.BaseSelector | None = None
        #: Outbound connections armed for EVENT_WRITE → the socket registered
        #: (a re-dial swaps the connection's).
        self._writers: dict[FrameConnection, socket.socket] = {}
        self._crash_requests: set[int] = set()
        #: ``crash()`` is the one method another thread may call mid-run.
        self._crash_lock = threading.Lock()
        self.dead_nodes: set[int] = set()
        self._node_by_id = {node.server.node_id: node for node in self.nodes}
        self._all_ids = frozenset(self._node_by_id)
        self.membership = membership
        if membership is not None:
            membership.bind(self)

    # -- round boundaries --------------------------------------------------------

    def round_down(self, round_index: int, down: frozenset) -> frozenset | None:
        """Apply crashes, then the one membership decision (and its swap);
        the plan's down set plus crashed and idle servers, or None to stop."""
        self._apply_crashes(round_index)
        if not self._live:
            return None
        inactive = frozenset()
        if self.membership is not None:
            decision = self.membership.decide(round_index)
            if decision.stop:
                return None
            swap = decision.swap
            for u, v in getattr(swap, "added_edges", ()):
                if v not in self._node_by_id[u].link_peers:
                    raise ProtocolError(
                        f"membership swap re-adds link {(u, v)} outside the "
                        "wired physical topology"
                    )
            if swap is not None:
                self._trainer._apply_topology_swap(swap)
            inactive = self._all_ids - frozenset(decision.active)
        self._inactive = inactive
        self._offline = down | inactive
        return self._offline | self.dead_nodes

    def crash(self, node_id: int) -> None:
        """Request a hard crash of ``node_id`` at its next round boundary."""
        if node_id not in self._all_ids:
            raise ConfigurationError(f"no such node: {node_id}")
        with self._crash_lock:
            self._crash_requests.add(node_id)

    def _apply_crashes(self, round_index: int) -> None:
        with self._crash_lock:
            scheduled = self.crash_schedule.get(round_index, frozenset())
            doomed = scheduled | self._crash_requests
        for node in [n for n in self._live if n.server.node_id in doomed]:
            self.dead_nodes.add(node.server.node_id)
            self._live.remove(node)
            for connection in node.send_connections.values():
                self._disarm(connection)
            for connection in node.recv_connections:
                self._selector.unregister(connection.sock)
            self._selector.unregister(node.listener)
            node.close()

    # -- the engine phases ---------------------------------------------------------

    def step_round(self, round_index: int, down: frozenset) -> None:
        """Step every live server that is up; record each live server's loss."""
        for node in self._live:
            node_id = node.server.node_id
            if node_id in self._inactive:
                # Not in the fleet this round (left, evicted, not yet
                # joined): its NaN loss stays out of the nanmean below.
                node.loss_trace.append(float("nan"))
            elif node_id in down:
                # Plan-downed: the simulator records the unstepped loss.
                node.loss_trace.append(node.server.local_loss())
            else:
                node.step(round_index)

    def communicate(
        self, round_index: int, down: frozenset
    ) -> tuple[int, DeliveredEdges]:
        """The round over the sockets: the simulator's sender, each node's
        wire, the barrier. Returns the values applied and their edges."""
        offline = self._offline
        active = [node for node in self._live if node.server.node_id not in down]
        for node in active:
            node.server.advance_views()
            self._trainer.send_round(
                node.server, round_index, offline, node._transmit
            )
        # The round's frames, in node order, as one ledger batch.
        self._flows.flush(self._trainer.tracker, round_index)
        for node in active:
            node.expect_senders(round_index, offline)
        self.barrier_wait(round_index)
        params_applied, delivered = 0, []
        for node in self._live:
            receiver = node.server.node_id
            delivered.extend((sender, receiver) for sender in node.applied)
            params_applied += sum(node.applied.values())
            node.end_round(self.dead_after_misses)
        return params_applied, DeliveredEdges.from_pairs(delivered)

    def barrier_wait(self, round_index: int) -> None:
        """The shared clock's tick: the one place the loop waits on the wire.

        Pumps the selector until every awaited frame is applied (or rejected,
        or its sender seen dead) or the budget runs out: ``round_deadline_s``
        makes whoever is left a straggler, strict mode's ``timeout_s`` kills
        the run.
        """
        strict = self.round_deadline_s is None
        budget = self.timeout_s if strict else self.round_deadline_s
        if not self._pump(budget, round_index, lambda node: node.waiting) and strict:
            late = {
                n.server.node_id: sorted(n.waiting) for n in self._live if n.waiting
            }
            raise ProtocolError(
                f"timed out waiting for round {round_index} frames "
                f"(node: missing senders): {late}"
            )
        # Otherwise degrade: survivors of the deadline stay stale.

    def mean_local_loss(self) -> float:
        """The live servers' mean loss this round (idle slots left out)."""
        mean = np.mean if self.membership is None else np.nanmean
        return float(mean([node.loss_trace[-1] for node in self._live]))

    def rebuild_topology(self) -> None:
        """Adopt the trainer's swapped topology; nothing is dialed. A
        re-added link is re-armed: pre-swap leftover frames are fenced out
        (link epoch), and the peer's miss and death record is cleared."""
        topology = self._trainer.topology
        round_index = self._trainer.rounds_completed + 1
        for node in self.nodes:
            node_id = node.server.node_id
            before = set(node.topology.neighbors(node_id))
            for peer in set(topology.neighbors(node_id)) - before:
                node.link_epoch[peer] = round_index
                node.dead_peers.discard(peer)
                node.miss_streak[peer] = 0
                node.last_applied_round[peer] = round_index - 1
            node.topology = topology

    def in_flight_edges(self) -> frozenset:
        """Edges whose last frame missed the deadline and may still be on the
        wire — the ``error-feedback`` invariant's exemption, as for semisync."""
        return frozenset(
            (sender, node.server.node_id)
            for node in self.nodes
            for sender, misses in node.miss_streak.items()
            if misses
        )

    # -- the loop ----------------------------------------------------------------

    def run(self, n_rounds: int) -> TestbedResult:
        """Execute ``n_rounds`` synchronized rounds over the real network."""
        if n_rounds <= 0:
            raise ConfigurationError(f"n_rounds must be > 0, got {n_rounds}")
        self._selector = selectors.DefaultSelector()
        try:
            self._wire_up()
            # Crashes of everyone or a membership stop can end a run early.
            result = self._trainer.run(
                max_rounds=n_rounds, stop_on_convergence=False
            )
        finally:
            self._selector.close()
            self._selector = None
            self._writers.clear()
            for node in self.nodes:
                node.close()
        n_frames = sum(node.frames_sent for node in self.nodes)
        return TestbedResult(
            final_params=self.stacked_params(),
            mean_loss_trace=result.loss_trace(),
            per_round_payload_bytes=result.bytes_trace(),
            # Counted on the wire, independently of the trainer's ledger.
            payload_bytes_total=sum(node.payload_bytes for node in self.nodes),
            header_bytes_total=n_frames * HEADER_BYTES,
            n_rounds=result.n_rounds,
            link_staleness=self._trainer.link_staleness,
            stale_view_rounds={
                (source, node.server.node_id): rounds
                for node in self.nodes
                for source, rounds in node.stale_view_rounds.items()
            },
            dead_nodes=frozenset(self.dead_nodes),
            corrupt_frames_total=sum(node.corrupt_frames for node in self.nodes),
        )

    def _wire_up(self) -> None:
        """Listeners into the selector, then one dial per directed link."""
        for node in self.nodes:
            self._selector.register(
                node.listener, _READ, (node.server.node_id, _UNKNOWN, node, None)
            )
        ports = self.ports
        for node in self.nodes:
            node.connect_to_neighbors(ports, self.retry_policy, self.timeout_s)
        if not self._pump(self.timeout_s, 0, lambda node: node.unwired):
            raise ProtocolError("testbed wiring timed out")

    def _pump(self, budget_s: float, round_index: int, pending) -> bool:
        """Poll until no live node has anything ``pending(node)``; False on timeout."""
        deadline = time.monotonic() + budget_s
        while any(pending(node) for node in self._live):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            self._poll(remaining, round_index)
        return True

    def _poll(self, timeout: float, round_index: int) -> None:
        """One selector wake-up: accept, read, apply, flush — never block."""
        now = time.monotonic()
        for node in self._live:
            for peer, connection in node.send_connections.items():
                if connection.outbox and connection not in self._writers:
                    # Queued by a send, or waiting out a retry back-off.
                    self._flush(node, peer, connection)
                    if connection.retry_at is not None:
                        timeout = min(timeout, connection.retry_at - now)
        events = self._selector.select(max(timeout, 0.0))
        # (receiver, sender) order, whatever order the kernel reported.
        events.sort(key=lambda event: event[0].data[:2])
        for key, mask in events:
            _, peer, node, connection = key.data
            if connection is None:
                self._accept(node)
            elif mask & _WRITE:
                self._flush(node, peer, connection)
            else:
                self._receive(node, peer, connection, round_index)

    def _accept(self, node: _Node) -> None:
        """Take one (re-)dialed inbound connection; its hello names the sender."""
        try:
            sock, _ = node.listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        connection = FrameConnection(
            sock, peer=f"a peer of server {node.server.node_id}"
        )
        node.recv_connections.append(connection)
        self._selector.register(
            sock, _READ, (node.server.node_id, _UNKNOWN, node, connection)
        )

    def _receive(self, node, peer, connection, round_index) -> None:
        """Read what arrived on one inbound link and apply its complete frames."""
        sender, parser, frames, lost = peer, connection.parser, [], False
        try:
            connection.fill()
            if sender == _UNKNOWN and (hello := parser.take(4)) is not None:
                sender = int.from_bytes(hello, "big")
            while sender != _UNKNOWN and (frame := parser.next_frame()) is not None:
                frames.append(frame)
        except (ProtocolError, OSError):
            # EOF, reset, or an unreadable stream: the inbound link is gone.
            lost = True
        if sender != _UNKNOWN and sender not in node.miss_streak:
            raise ProtocolError(  # keys of miss_streak = the physical peer set
                f"node {node.server.node_id} got a hello from "
                f"unexpected peer {sender}"
            )
        for frame in frames:
            node.deliver(frame, round_index)
        if lost:
            self._selector.unregister(connection.sock)
            node.recv_connections.remove(connection)
            connection.close()
            if sender != _UNKNOWN:
                node.dead_peers.add(sender)
                node.waiting.discard(sender)
        elif sender != peer:
            node.unwired.discard(sender)
            self._selector.modify(
                connection.sock, _READ, (node.server.node_id, sender, node, connection)
            )

    def _flush(self, node: _Node, peer: int, connection: FrameConnection) -> None:
        """Push one outbound link's queued bytes; arm EVENT_WRITE if some stay."""
        self._disarm(connection)
        try:
            connection.flush()
        except ProtocolError:
            # Retries (and reconnect attempts) exhausted: the peer is gone.
            node.dead_peers.add(peer)
        if connection.outbox and connection.retry_at is None:
            self._writers[connection] = connection.sock
            self._selector.register(
                connection.sock, _WRITE, (node.server.node_id, peer, node, connection)
            )

    def _disarm(self, connection: FrameConnection) -> None:
        sock = self._writers.pop(connection, None)
        if sock is not None:
            self._selector.unregister(sock)

    @property
    def ports(self) -> dict[int, int]:
        """Bound ephemeral listener port of every node (id → port).

        Every listener binds port 0 and publishes the kernel-assigned port
        here — this is what the orchestrator's registry republishes to
        peers, so no caller ever hand-maintains a port map.
        """
        return {node.server.node_id: node.port for node in self.nodes}

    @property
    def trainer(self):
        """The internal trainer (weight matrix, tracker, config, servers)."""
        return self._trainer
