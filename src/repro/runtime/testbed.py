"""The networked testbed: one thread + one TCP listener per edge server.

Reproduces the paper's small-scale testbed setup: servers hold *persistent*
connections to their neighbors (Section II-B) and exchange binary Fig. 3
frames every round, synchronized by a shared clock (Section IV-D) — modeled
here as thread barriers, the single-host stand-in for the paper's timer.

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
* ``round_deadline_s`` bounds how long a server waits for its neighbors'
  frames each round. A neighbor that misses the deadline is handled by the
  paper's straggler rule (Section IV-D): the receiver keeps its cached view
  and the round proceeds. ``dead_after_misses`` consecutive misses mark the
  peer dead — the receiver stops budgeting wait time for it until a frame
  from it arrives again.
* :meth:`TestbedRuntime.crash` (or ``crash_schedule``) kills a server hard:
  its sockets close abruptly, peers observe EOF/ECONNRESET mid-run and
  immediately fall back to cached views, and the degradable barrier shrinks
  so the survivors keep making progress.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from queue import Empty, Queue

import numpy as np

from repro.core.config import SNAPConfig
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.exceptions import (
    ConfigurationError,
    FrameCorruptionError,
    ProtocolError,
)
from repro.faults.plan import FaultPlan
from repro.models.base import Model
from repro.runtime.transport import (
    HEADER_BYTES,
    FrameConnection,
    RetryPolicy,
)
from repro.topology.graph import Topology
from repro.types import Params, WeightMatrix

#: Seconds a node waits at a barrier / for a frame before declaring the run dead.
DEFAULT_TIMEOUT_S = 30.0

#: Consecutive missed round deadlines before a peer is considered dead.
DEFAULT_DEAD_AFTER_MISSES = 3


@dataclass(frozen=True)
class _Corrupt:
    """Inbox marker: a frame from ``sender`` arrived but failed its CRC."""

    sender: int
    round_index: int | None


@dataclass(frozen=True)
class _PeerGone:
    """Inbox marker: the inbound connection from ``sender`` died."""

    sender: int


class _DegradableBarrier:
    """A barrier whose party count shrinks when a node crashes.

    ``threading.Barrier`` breaks permanently the first time a participant
    disappears; here a crashed node calls :meth:`leave` and the survivors
    keep synchronizing among themselves. :meth:`abort` poisons the barrier
    so every waiter unblocks with an error (used to surface exceptions).
    """

    def __init__(self, parties: int):
        self._cond = threading.Condition()
        self._parties = parties
        self._count = 0
        self._generation = 0
        self._broken = False

    def wait(self, timeout: float) -> None:
        with self._cond:
            if self._broken:
                raise ProtocolError("testbed barrier aborted")
            generation = self._generation
            self._count += 1
            if self._count >= self._parties:
                self._release()
                return
            deadline = time.monotonic() + timeout
            while generation == self._generation and not self._broken:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._count -= 1
                    raise ProtocolError(
                        f"testbed barrier timed out after {timeout}s"
                    )
                self._cond.wait(remaining)
            if self._broken:
                raise ProtocolError("testbed barrier aborted")

    def leave(self) -> None:
        """Permanently remove one (not currently waiting) participant."""
        with self._cond:
            self._parties -= 1
            if 0 < self._parties <= self._count:
                self._release()

    def abort(self) -> None:
        with self._cond:
            self._broken = True
            self._cond.notify_all()

    def _release(self) -> None:
        self._count = 0
        self._generation += 1
        self._cond.notify_all()


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
        Final per-directed-link staleness: rounds since the destination
        last applied a fresh update from the source (reset to 0 on every
        application — the trainer's ``link_staleness`` semantics, kept
        bit-for-bit comparable with simulated runs).
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


class _Node:
    """Runtime wrapper around one EdgeServer: sockets, inbox, per-round loop."""

    def __init__(self, server, runtime: "TestbedRuntime"):
        self.server = server
        self.runtime = runtime
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
        self.port = self.listener.getsockname()[1]
        self.send_connections: dict[int, FrameConnection] = {}
        self.recv_connections: list[FrameConnection] = []
        self.inbox: Queue = Queue()
        self.loss_trace: list[float] = []
        self.payload_bytes = 0
        self.frames_sent = 0
        self.per_round_payload: list[int] = []
        self.reader_threads: list[threading.Thread] = []
        #: Set once every neighbor has connected inbound at least once.
        self.wired = threading.Event()
        #: Rounds since each in-neighbor's update was last applied here.
        self.staleness: dict[int, int] = {n: 0 for n in self.link_peers}
        #: Sender round of the newest frame applied from each in-neighbor.
        self.last_applied_round: dict[int, int] = {
            n: 0 for n in self.link_peers
        }
        #: Rounds this node *started* with a stale view of each in-neighbor
        #: (view version older than the previous round) — the semi-sync
        #: engine's straggler ledger, mirrored for testbed runs.
        self.stale_view_rounds: dict[int, int] = {
            n: 0 for n in self.link_peers
        }
        #: Consecutive rounds each in-neighbor missed the round deadline.
        self.miss_streak: dict[int, int] = {n: 0 for n in self.link_peers}
        #: Per-peer frame epoch: frames built before this round are stale
        #: leftovers from before a membership swap re-seeded the link, and
        #: are dropped instead of applied.
        self.link_epoch: dict[int, int] = {}
        #: Peers believed gone (EOF seen or too many missed deadlines).
        self.dead_peers: set[int] = set()
        self.corrupt_frames = 0
        self.crashed = threading.Event()

    # -- wiring ----------------------------------------------------------------

    def acceptor_loop(self) -> None:
        """Accept inbound connections for the life of the run.

        The loop keeps running after initial wiring so a peer whose
        connection died can transparently re-dial (the transport layer's
        reconnect path lands here).
        """
        expected = set(self.link_peers)
        self.listener.settimeout(0.2)
        while not self.runtime._stopping.is_set():
            try:
                sock, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed (shutdown or crash)
            try:
                sender = self._read_hello(sock)
            except ProtocolError:
                sock.close()
                continue
            if sender not in self.staleness:  # keys = physical peer set
                sock.close()
                self.runtime._record_error(
                    ProtocolError(
                        f"node {self.server.node_id} got a hello from "
                        f"unexpected peer {sender}"
                    )
                )
                continue
            expected.discard(sender)
            connection = FrameConnection(sock, peer=f"server {sender}")
            self.recv_connections.append(connection)
            thread = threading.Thread(
                target=self._reader_loop, args=(connection, sender), daemon=True
            )
            thread.start()
            self.reader_threads.append(thread)
            if not expected:
                self.wired.set()

    @staticmethod
    def _read_hello(sock: socket.socket) -> int:
        hello = b""
        while len(hello) < 4:
            chunk = sock.recv(4 - len(hello))
            if not chunk:
                raise ProtocolError("peer closed during hello")
            hello += chunk
        return int.from_bytes(hello, "big")

    def connect_to_neighbors(self, ports: dict[int, int]) -> None:
        """Open one persistent outbound connection per physical peer."""
        for neighbor in self.link_peers:
            self.send_connections[neighbor] = FrameConnection(
                self._dial(ports[neighbor]),
                peer=f"server {neighbor}",
                reconnect=lambda port=ports[neighbor]: self._dial(port),
                retry_policy=self.runtime.retry_policy,
            )

    def _dial(self, port: int) -> socket.socket:
        sock = socket.create_connection(
            ("127.0.0.1", port), timeout=self.runtime.timeout_s
        )
        sock.settimeout(None)
        sock.sendall(int(self.server.node_id).to_bytes(4, "big"))
        return sock

    def _reader_loop(self, connection: FrameConnection, sender: int) -> None:
        while True:
            try:
                update = connection.recv_update()
            except FrameCorruptionError as error:
                # Payload was framed correctly, so the stream stays aligned:
                # report the damage and keep reading subsequent frames.
                self.inbox.put(_Corrupt(error.sender, error.round_index))
                continue
            except (ProtocolError, OSError):
                self.inbox.put(_PeerGone(sender))
                return
            self.inbox.put(update)

    # -- the per-round protocol -------------------------------------------------

    def run_round(self, round_index: int) -> bool:
        """One synchronized round (called between the runtime's barriers).

        Returns ``False`` when an orchestrator membership decision stops
        the run (e.g. the job's bytes budget is exhausted) — every node
        thread sees the same cached decision, so they all stop together
        before touching a barrier.
        """
        server = self.server
        plan = self.runtime.fault_plan
        topology = self.runtime.topology
        inactive = self.runtime._membership_sync(round_index)
        if inactive is None:
            return False  # membership decision: stop the run
        down = (
            plan.failed_nodes(topology, round_index)
            if plan is not None
            else frozenset()
        )

        if server.node_id in inactive:
            # Membership-inactive slot (left, evicted, or not yet joined):
            # idles exactly like a plan-downed server, except its loss is
            # NaN — it is not part of the fleet this round, so it must not
            # drag the mean-loss trace (the runtime nanmeans in membership
            # mode).
            self.loss_trace.append(float("nan"))
            self.runtime.barrier_wait()
            for neighbor in self.staleness:
                self.staleness[neighbor] += 1
            self.runtime.barrier_wait()
            return True

        if server.node_id in down:
            # Plan-downed this round: no step, no traffic, no receptions —
            # but stay at the barriers so the shared clock keeps ticking.
            # (Mirrors the simulator: the recorded loss is the *unstepped*
            # local loss, and every cached view ages by one round.)
            self.loss_trace.append(server.local_loss())
            self.runtime.barrier_wait()
            for neighbor in self.staleness:
                self.staleness[neighbor] += 1
            self.runtime.barrier_wait()
            return True

        down = down | inactive

        # Ledger how old each usable in-edge view is as this round starts
        # (same rule as the semi-sync engine's _note_staleness: peers we
        # have written off are excluded, like its degraded edges).
        for neighbor in self.stale_view_rounds:
            if neighbor in self.dead_peers or neighbor not in server.views:
                continue
            if (round_index - 1) - self.last_applied_round[neighbor] > 0:
                self.stale_view_rounds[neighbor] += 1

        server.step()
        self.loss_trace.append(server.local_loss())
        self.runtime.barrier_wait()  # everyone stepped

        server.advance_views()
        # The sender is the simulator's; this node supplies the wire. A
        # peer in ``down`` is offline: no update is even built.
        self.runtime._trainer.send_round(server, round_index, down, self._transmit)

        self._collect_round(round_index, down, plan, topology)
        self.runtime.barrier_wait()  # everyone exchanged
        return True

    def _transmit(self, source: int, neighbor: int, message, stage) -> bool:
        """This node's wire for :meth:`SNAPTrainer.send_round`: one TCP frame.

        A plan-failed link drops the update — already built, so APE
        suppression statistics match the simulator — before any bytes enter
        the network. A plan-corrupted frame still counts its payload bytes:
        the bits crossed even though the receiver's CRC rejects them,
        exactly how the simulator's channel charges corrupted deliveries.
        A peer that proves unreachable is marked dead; the straggler rule
        covers the missing update.
        """
        plan = self.runtime.fault_plan
        round_index = message.round_index
        corrupt = False
        if plan is not None:
            link = (self.runtime.topology, source, neighbor, round_index)
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
        self.runtime._record_flow(round_index, source, neighbor, sent)
        return not corrupt

    def _collect_round(self, round_index, down, plan, topology) -> None:
        """Receive this round's frames, degrading on deadline or death.

        Expected senders exclude plan-downed peers, plan-failed links, and
        peers already believed dead. A frame rejected by the CRC check or a
        peer that misses the round deadline resolves to the straggler rule:
        the cached view stays in use and its staleness counter grows.
        """
        server = self.server
        pending = set()
        for neighbor in server.neighbors:
            if neighbor in down or neighbor in self.dead_peers:
                continue
            if plan is not None and not plan.link_up(
                topology, neighbor, server.node_id, round_index
            ):
                continue
            pending.add(neighbor)

        applied: set[int] = set()
        deadline_s = self.runtime.round_deadline_s
        strict = deadline_s is None
        deadline = time.monotonic() + (
            self.runtime.timeout_s if strict else deadline_s
        )
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if strict:
                    raise ProtocolError(
                        f"node {server.node_id} timed out waiting for round "
                        f"{round_index} frames from {sorted(pending)}"
                    )
                break  # degrade: survivors of the deadline stay stale
            try:
                item = self.inbox.get(timeout=remaining)
            except Empty:
                continue
            if isinstance(item, _PeerGone):
                self.dead_peers.add(item.sender)
                pending.discard(item.sender)
                continue
            if isinstance(item, _Corrupt):
                self.corrupt_frames += 1
                if item.sender is not None:
                    pending.discard(item.sender)
                continue
            update = item
            if update.round_index > round_index:
                raise ProtocolError(
                    f"node {server.node_id} got a round-{update.round_index} "
                    f"frame during round {round_index}"
                )
            if (
                update.sender not in server.views
                or update.round_index < self.link_epoch.get(update.sender, 0)
            ):
                # Leftover frame across a membership swap: the sender is no
                # longer an algorithmic neighbor, or the frame was built
                # before the link was re-seeded (applying a pre-swap delta
                # to a seeded view would corrupt it). Drop it.
                pending.discard(update.sender)
                continue
            # A frame from an earlier round (a straggler catching up) is
            # still the newest information from that peer — apply it, per
            # the paper's reuse-the-latest-received rule.
            server.receive_update(update)
            self.last_applied_round[update.sender] = max(
                self.last_applied_round[update.sender], update.round_index
            )
            applied.add(update.sender)
            pending.discard(update.sender)
            self.dead_peers.discard(update.sender)
            self.miss_streak[update.sender] = 0

        # Deadline expired on whoever is left: count the miss, and after
        # enough consecutive misses stop waiting for that peer at all.
        for neighbor in pending:
            self.miss_streak[neighbor] += 1
            if (
                self.runtime.dead_after_misses is not None
                and self.miss_streak[neighbor] >= self.runtime.dead_after_misses
            ):
                self.dead_peers.add(neighbor)
        for neighbor in self.staleness:
            if neighbor in applied:
                self.staleness[neighbor] = 0
            else:
                self.staleness[neighbor] += 1

    # -- teardown ----------------------------------------------------------------

    def hard_crash(self) -> None:
        """Die abruptly: close every socket so peers see EOF/ECONNRESET."""
        self.crashed.set()
        self.close()

    def close(self) -> None:
        for connection in self.send_connections.values():
            connection.close()
        for connection in self.recv_connections:
            connection.close()
        self.listener.close()


class TestbedRuntime:
    """Run SNAP over real localhost TCP sockets.

    Accepts the same inputs as :class:`~repro.core.SNAPTrainer` (which it
    uses internally to build the weight matrix, step size, servers, and APE
    schedules), plus the fault-tolerance knobs below.

    Parameters
    ----------
    fault_plan:
        Deterministic chaos to inject (link outages, node-down spans, frame
        corruption) — the same plan drives the simulator, so faulty runs
        stay comparable bit-for-bit.
    timeout_s:
        Hard ceiling on barrier waits and (in strict mode) frame waits;
        exceeding it kills the run.
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
        boundary), and ``stop``. The runtime calls ``decide`` exactly once
        per round (first node thread in computes, the rest read the cached
        decision), treats non-active slots as idle, applies the swap to
        the shared server objects before any thread proceeds, and stops
        the run cleanly when ``stop`` is set. ``None`` (default) is the
        static fleet: behavior is bit-for-bit the pre-orchestrator runtime.
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
        # Link, node, and corruption faults are replayed by the testbed's
        # own wire layer, but byzantine transmission lives on the trainer
        # (every runtime's send path routes through transmit_params), so
        # only that component is handed down. A fresh FaultPlan keeps the
        # stateful link/node models bound to the testbed, not the trainer.
        byzantine = fault_plan.byzantine if fault_plan is not None else None
        trainer = SNAPTrainer(
            model,
            shards,
            topology,
            config=config,
            weight_matrix=weight_matrix,
            initial_params=initial_params,
            fault_plan=(
                FaultPlan(byzantine=byzantine)
                if byzantine is not None
                else None
            ),
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
        self.timeout_s = float(timeout_s)
        self.round_deadline_s = (
            float(round_deadline_s) if round_deadline_s is not None else None
        )
        self.dead_after_misses = dead_after_misses
        self.fault_plan = fault_plan
        self.topology = topology
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=3, backoff_base_s=0.02, backoff_max_s=0.2)
        )
        self.crash_schedule: dict[int, frozenset[int]] = {}
        for round_index, nodes in (crash_schedule or {}).items():
            crashed = frozenset(int(n) for n in (
                [nodes] if isinstance(nodes, int) else nodes
            ))
            bad = [n for n in crashed if n not in set(topology)]
            if bad:
                raise ConfigurationError(
                    f"crash_schedule round {round_index} names nodes {bad} "
                    f"outside the topology"
                )
            self.crash_schedule[int(round_index)] = crashed
        self._trainer = trainer
        self.nodes = [_Node(server, self) for server in trainer.servers]
        self._barrier = _DegradableBarrier(len(self.nodes))
        self._errors: list[BaseException] = []
        self._error_lock = threading.Lock()
        self._stopping = threading.Event()
        self._crash_requests: set[int] = set()
        self._crash_lock = threading.Lock()
        self.dead_nodes: set[int] = set()
        self._node_by_id = {node.server.node_id: node for node in self.nodes}
        self._all_ids = frozenset(self._node_by_id)
        #: Every frame's payload bytes land in the trainer's columnar cost
        #: tracker (stage ``"testbed"``), so an orchestrator /metrics
        #: endpoint reads live, exact byte counters.
        self._tracker_lock = threading.Lock()
        self.membership = membership
        self._membership_lock = threading.Lock()
        #: ``(round_index, decision, inactive)`` cache — one decision per round.
        self._membership_cache: tuple = (0, None, frozenset())
        if membership is not None:
            membership.bind(self)

    def _record_flow(self, round_index, source, destination, n_bytes) -> None:
        with self._tracker_lock:
            self._trainer.tracker.record(
                round_index, source, destination, n_bytes, hops=1, stage="testbed"
            )

    def _membership_sync(self, round_index: int) -> frozenset | None:
        """The membership-inactive set for this round (None = stop the run).

        The first node thread to reach a round boundary computes the
        decision and applies its topology swap; later threads read the
        cached result. This is safe because every thread calls here before
        touching its server, and the previous round's closing barrier
        guarantees no thread is still inside round ``round_index - 1`` —
        so the swap mutates the shared server objects while every other
        thread is parked on the lock or between rounds.
        """
        if self.membership is None:
            return frozenset()
        with self._membership_lock:
            cached_round, decision, inactive = self._membership_cache
            if cached_round != round_index:
                decision = self.membership.decide(round_index)
                inactive = self._all_ids - frozenset(decision.active)
                if decision.swap is not None and not decision.stop:
                    self._apply_membership_swap(decision.swap, round_index)
                self._membership_cache = (round_index, decision, inactive)
            return None if decision.stop else inactive

    def _apply_membership_swap(self, swap, round_index: int) -> None:
        """Adopt an orchestrator swap on the live fleet at a round boundary.

        Reuses the trainer's atomic swap application (validation, per-node
        rows, alpha re-cap, seeded views for re-added links, staleness
        rebuild, monitor re-check) minus the engine sync — the testbed's
        server objects are already authoritative. Node-level link state is
        then re-armed for re-added links: the frame epoch fences out
        pre-swap leftovers, and the peer's miss/death record is cleared.
        """
        for u, v in getattr(swap, "added_edges", ()):
            bad = [e for e in ((u, v), (v, u)) if e[1] not in
                   self._node_by_id[e[0]].link_peers]
            if bad:
                raise ProtocolError(
                    f"membership swap re-adds link {(u, v)} outside the "
                    "wired physical topology"
                )
        self._trainer._apply_topology_swap(swap, sync_engine=False)
        for u, v in getattr(swap, "added_edges", ()):
            for node_id, peer in ((u, v), (v, u)):
                node = self._node_by_id[node_id]
                node.link_epoch[peer] = round_index
                node.dead_peers.discard(peer)
                node.miss_streak[peer] = 0
                node.last_applied_round[peer] = round_index - 1
                node.staleness[peer] = 0

    def barrier_wait(self) -> None:
        """Synchronize the surviving node threads (the shared-clock stand-in)."""
        budget = self.timeout_s
        if self.round_deadline_s is not None:
            # In degraded mode a round may legitimately take a full receive
            # deadline; give the barrier that much slack on top.
            budget += self.round_deadline_s
        self._barrier.wait(timeout=budget)

    def crash(self, node_id: int) -> None:
        """Request a hard crash of ``node_id`` at its next round boundary."""
        if node_id not in {node.server.node_id for node in self.nodes}:
            raise ConfigurationError(f"no such node: {node_id}")
        with self._crash_lock:
            self._crash_requests.add(node_id)

    def _should_crash(self, node: _Node, round_index: int) -> bool:
        if node.server.node_id in self.crash_schedule.get(round_index, ()):
            return True
        with self._crash_lock:
            return node.server.node_id in self._crash_requests

    def _record_error(self, error: BaseException) -> None:
        with self._error_lock:
            self._errors.append(error)

    def run(self, n_rounds: int) -> TestbedResult:
        """Execute ``n_rounds`` synchronized rounds over the real network."""
        if n_rounds <= 0:
            raise ConfigurationError(f"n_rounds must be > 0, got {n_rounds}")
        ports = {node.server.node_id: node.port for node in self.nodes}

        # Wire up: persistent acceptor loops first, then outbound connections.
        acceptors = [
            threading.Thread(target=node.acceptor_loop, daemon=True)
            for node in self.nodes
        ]
        for thread in acceptors:
            thread.start()
        for node in self.nodes:
            node.connect_to_neighbors(ports)
        for node in self.nodes:
            if not node.wired.wait(timeout=self.timeout_s):
                self._stopping.set()
                raise ProtocolError("testbed wiring timed out")

        workers = [
            threading.Thread(
                target=self._node_loop, args=(node, n_rounds), daemon=True
            )
            for node in self.nodes
        ]
        try:
            for thread in workers:
                thread.start()
            per_round_budget = self.timeout_s + (self.round_deadline_s or 0.0)
            for thread in workers:
                thread.join(timeout=per_round_budget * (n_rounds + 2))
        finally:
            self._stopping.set()
            for node in self.nodes:
                node.close()
        if self._errors:
            raise self._errors[0]

        # A membership stop decision may end the run before n_rounds.
        executed = max(
            (len(node.loss_trace) for node in self.nodes), default=0
        )
        n_rounds = min(n_rounds, executed)
        # Membership-inactive slots contribute NaN losses; the fleet mean
        # is over the slots actually in the fleet that round. Static runs
        # keep np.mean bit-for-bit.
        mean = np.mean if self.membership is None else np.nanmean
        per_round = [
            int(
                sum(
                    node.per_round_payload[r]
                    for node in self.nodes
                    if r < len(node.per_round_payload)
                )
            )
            for r in range(n_rounds)
        ]
        mean_loss = [
            float(mean([
                node.loss_trace[r]
                for node in self.nodes
                if r < len(node.loss_trace)
            ]))
            for r in range(n_rounds)
        ]
        payload_total = sum(node.payload_bytes for node in self.nodes)
        n_frames = sum(node.frames_sent for node in self.nodes)
        link_staleness = {
            (source, node.server.node_id): rounds
            for node in self.nodes
            for source, rounds in node.staleness.items()
        }
        stale_view_rounds = {
            (source, node.server.node_id): rounds
            for node in self.nodes
            for source, rounds in node.stale_view_rounds.items()
        }
        return TestbedResult(
            final_params=np.stack([node.server.params for node in self.nodes]),
            mean_loss_trace=mean_loss,
            per_round_payload_bytes=per_round,
            payload_bytes_total=payload_total,
            header_bytes_total=n_frames * HEADER_BYTES,
            n_rounds=n_rounds,
            link_staleness=link_staleness,
            stale_view_rounds=stale_view_rounds,
            dead_nodes=frozenset(self.dead_nodes),
            corrupt_frames_total=sum(node.corrupt_frames for node in self.nodes),
        )

    def _node_loop(self, node: _Node, n_rounds: int) -> None:
        try:
            for round_index in range(1, n_rounds + 1):
                if self._should_crash(node, round_index):
                    self.dead_nodes.add(node.server.node_id)
                    node.hard_crash()
                    self._barrier.leave()
                    return
                before = node.payload_bytes
                if not node.run_round(round_index):
                    return  # membership stop: all threads exit together
                node.per_round_payload.append(node.payload_bytes - before)
        except BaseException as error:  # noqa: BLE001 - surfaced to the caller
            self._record_error(error)
            self._barrier.abort()

    def stacked_params(self) -> np.ndarray:
        """Current per-server parameters (rows aligned with node ids)."""
        return np.stack([node.server.params for node in self.nodes])

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
