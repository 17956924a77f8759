"""Event-driven semi-synchronous execution with a bounded staleness barrier.

The synchronous engines advance every server in lockstep: round ``k`` starts
only when the *slowest* server finished round ``k - 1`` — one 10x straggler
makes the whole fleet 10x slower (the regime of the paper's Fig. 9). This
engine removes the global barrier. Each server advances on a **local clock**
derived from the :class:`~repro.network.timing.LinkTimingModel` (per-node
compute time, per-link transfer time, perturbable by a
:class:`~repro.faults.FaultPlan`'s clock-skew models) and gossips its EXTRA
update to its neighbors the moment it is ready. The only synchronization
left is the **staleness bound** τ (``SNAPConfig.staleness_bound``): a server
may start local round ``k`` while a neighbor's last observed round is as old
as ``k - 1 - τ``; only beyond that does it block. A blocked server with
``SNAPConfig.straggler_patience_s`` set eventually writes the lagging
neighbors off as *degraded* and continues with reweighted mixing (their
weight moves onto the diagonal, the bias-free
:class:`~repro.core.config.StragglerStrategy.REWEIGHT` substitution) — so a
crashed or persistently late neighbor slows nobody. A degraded neighbor that
delivers a sufficiently recent frame again is revived automatically.

Correctness anchor — **τ = 0 with uniform clocks is bit-for-bit identical to
the synchronous engines**: same :class:`~repro.results.RoundRecord` stream,
same flow ledger, same final parameters, same post-run server state (the
``RunDigest`` compares equal). The load-bearing properties:

* at τ = 0 a server's barrier admits round ``k`` only after *every* incoming
  round-``k-1`` notification was processed, so its step mixes exactly the
  views the synchronous round ``k`` would;
* a frame tagged with sender round ``m`` is applied only once the receiver
  has completed its own round ``m`` (earlier arrivals are buffered per
  directed edge, FIFO), reproducing the reference ordering *step → advance
  views → receive round-``m`` frames*;
* per-round flows are buffered and flushed to the cost tracker in the
  reference's canonical order (round-major, then sender-ascending), so the
  append-ordered ledger hash matches even though event execution interleaves;
* compression, the fault plan's link and corruption decisions, and APE
  schedule transitions all key off the *sender's local round*, which at
  lockstep equals the global round.

The engine owns no sender loop: a local round calls the trainer's shared
``SNAPTrainer.send_round`` with :meth:`SemiSyncEngine._transmit` as its wire
and the progress notice as its ``offline`` callback. Every local round
emits exactly one notification on every outgoing edge — a delivered frame,
a corrupted frame (observed, never applied), or a zero-byte progress notice
(link down, either endpoint down). Notices cost no bytes and record no
flow; they exist so the staleness barrier always learns about neighbor
progress and can never deadlock. Per directed edge, notifications arrive in
FIFO order (they share one TCP stream), which makes
applied view versions monotone by construction.

The trainer's round loop is unchanged: ``communicate(r)`` runs the event
loop until every server has completed local round ``r`` (servers that are
*left behind* — degraded by all of their neighbors — are exempt and keep
plodding along on their own clock), then settles all in-flight arrivals, so
each :class:`~repro.results.RoundRecord` observes a consistent
round-``r`` fleet. Time is simulated, not real: the engine runs as fast as
the synchronous ones and reports the virtual makespan via
:meth:`SemiSyncEngine.timing_summary`.
"""

from __future__ import annotations

import bisect
import heapq
from collections import Counter, defaultdict, deque
from functools import partial
from typing import TYPE_CHECKING

from repro.core.engine import DeliveredEdges, Engine
from repro.exceptions import ProtocolError
from repro.network.cost import FlowBatch
from repro.network.timing import LinkTimingModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trainer imports us)
    from repro.core.trainer import SNAPTrainer

#: Event kinds, in tie-break priority order at equal timestamps: a server
#: whose barrier is already clear steps before unrelated arrivals land.
_READY, _ARRIVAL, _TIMEOUT = 0, 1, 2


class _NodeState:
    """Per-server scheduling state (the EdgeServer holds the algorithm state)."""

    __slots__ = (
        "node_id",
        "completed",
        "clock",
        "blocked",
        "block_epoch",
        "block_since",
        "degraded",
        "parked_at",
    )

    def __init__(self, node_id: int, completed: int):
        self.node_id = node_id
        #: Highest local round this server has finished.
        self.completed = completed
        #: Local time at which that round finished.
        self.clock = 0.0
        self.blocked = False
        #: Bumped on every block *and* unblock so a stale TIMEOUT is inert.
        self.block_epoch = 0
        self.block_since = 0.0
        #: In-neighbors written off as stragglers (mixed via self-substitution).
        self.degraded: set[int] = set()
        #: Barrier-clear time of a round beyond the trainer's current target;
        #: the server resumes from here when the target advances.
        self.parked_at: float | None = None


class SemiSyncEngine(Engine):
    """Bounded-staleness event-driven execution over the EdgeServer objects."""

    name = "semisync"

    def __init__(self, trainer: "SNAPTrainer"):
        self.trainer = trainer
        self.tau = int(trainer.config.staleness_bound)
        self.patience = trainer.config.straggler_patience_s
        self.timing: LinkTimingModel = (
            trainer.config.timing
            if trainer.config.timing is not None
            else LinkTimingModel()
        )
        self._initialized = False
        self._heap: list[tuple] = []
        self._seq = 0
        self._nodes: list[_NodeState] = []
        #: Per directed edge (src, dst): the notification history as two
        #: parallel monotone lists (arrival times, sender rounds). The
        #: staleness barrier is *causal*: a server at local time ``t`` only
        #: credits notifications with arrival time ≤ ``t``, even though the
        #: event loop (driven round-by-round by the trainer) may already have
        #: processed later ones on behalf of other servers.
        self._arrival_times: dict[tuple[int, int], list[float]] = {}
        self._arrival_rounds: dict[tuple[int, int], list[int]] = {}
        #: Per directed edge: highest sender round actually *applied* to the
        #: receiver's views (≤ observed; the gap is view staleness).
        self._last_applied: dict[tuple[int, int], int] = {}
        #: Frames that arrived before the receiver reached the sender's round.
        self._buffers: dict[tuple[int, int], deque] = defaultdict(deque)
        #: Delivered frames scheduled or buffered but not yet applied.
        self._outstanding: Counter = Counter()
        #: FIFO frontier per directed edge (one TCP stream per edge).
        self._edge_last_arrival: dict[tuple[int, int], float] = {}
        #: Flows buffered per (sender round, sender) for canonical-order flush.
        self._flow_buffer: dict[int, dict[int, list]] = {}
        self._round_params_sent: Counter = Counter()
        self._round_delivered: dict[int, list] = defaultdict(list)
        # -- staleness / conservation ledgers (exposed to the monitor) --
        self.max_progress_staleness = 0
        self.monotonic_views = True
        self.degraded_events = 0
        self.stale_view_rounds: Counter = Counter()
        self.blocked_time_s = 0.0
        self.frames_wire = 0
        self.frames_applied = 0
        self.frames_corrupt = 0
        self.bytes_wire = 0
        self.bytes_applied = 0
        self.bytes_corrupt = 0

    # -- engine protocol --------------------------------------------------------

    def begin_run(self) -> None:
        """Arm the event loop once, seeding the edge ledgers through
        :meth:`rebuild`; later run() calls continue where it stopped."""
        if self._initialized:
            return
        self._initialized = True
        start_round = self.trainer.rounds_completed
        self._nodes = [
            _NodeState(node, start_round) for node in self.trainer.topology
        ]
        self.rebuild()
        for node in self._nodes:
            self._push(0.0, _READY, node.node_id)

    def step_round(self, round_index: int, down: frozenset) -> None:
        """No-op: stepping happens inside the event loop, per local clock."""

    def communicate(
        self, round_index: int, down: frozenset
    ) -> tuple[int, DeliveredEdges]:
        """Advance the fleet until every server completed ``round_index``.

        Servers left behind (degraded by every neighbor) are exempt from the
        target — the fleet does not wait for them; they keep executing on
        their own (slow) clock whenever the event order reaches them. After
        the target is met, all in-flight arrivals are settled so the
        trainer observes a consistent fleet, and the round's flows are
        flushed to the cost tracker in canonical reference order.
        """
        for node in self._nodes:
            if node.parked_at is not None and node.completed < round_index:
                self._push(node.parked_at, _READY, node.node_id)
                node.parked_at = None
        while not self._target_met(round_index):
            if not self._heap:
                raise ProtocolError(
                    f"semi-sync event loop drained with servers short of "
                    f"round {round_index}: "
                    f"{[(n.node_id, n.completed) for n in self._nodes]}"
                )
            self._dispatch(heapq.heappop(self._heap), round_index)
        self._settle_arrivals()
        self._flush_flows(round_index)
        params_sent = int(self._round_params_sent.pop(round_index, 0))
        return params_sent, DeliveredEdges.from_pairs(
            self._round_delivered.pop(round_index, ())
        )

    def rebuild(self) -> None:
        """Adopt the trainer's topology at a round boundary (layout only).

        Called after ``_settle_arrivals``: the heap holds no in-flight
        ARRIVAL events, so the only frames that can reference a pruned edge
        sit in the reorder buffers. Those frames were already charged on the
        wire but their link no longer exists: they are voided into the
        corrupted ledger (bytes crossed, payload never applied) so the
        three-way frame-conservation check stays exact across the swap.
        Scheduling state for pruned edges is dropped, an added edge gets its
        own (see below), degraded sets are clipped to the surviving
        in-neighbors, and any server blocked solely on pruned links is
        woken — a barrier waiting on a link that no longer exists would
        otherwise deadlock. A drift epoch changes no edge, so nothing moves.
        """
        trainer = self.trainer
        if not self._initialized:
            return
        src, dst = trainer.topology.directed_edges
        live = set(zip(src.tolist(), dst.tolist()))
        for edge in [e for e in self._arrival_times if e not in live]:
            buffer = self._buffers.pop(edge, None)
            if buffer:
                for message in buffer:
                    self._outstanding[edge] -= 1
                    self.frames_corrupt += 1
                    self.bytes_corrupt += message.size_bytes
            self._arrival_times.pop(edge, None)
            self._arrival_rounds.pop(edge, None)
            self._last_applied.pop(edge, None)
            self._edge_last_arrival.pop(edge, None)
            self._outstanding.pop(edge, None)
            self.stale_view_rounds.pop(edge, None)
        # An added link starts holding its sender's current parameters: the
        # receiver has observed, and applied, the sender's completed round.
        for edge in sorted(live - self._arrival_times.keys()):
            sender_round = self._nodes[edge[0]].completed
            self._arrival_times[edge] = [0.0]
            self._arrival_rounds[edge] = [sender_round]
            self._last_applied[edge] = sender_round
        for node in self._nodes:
            surviving = set(trainer.topology.neighbors(node.node_id))
            node.degraded &= surviving
            if node.blocked and not self._lagging(
                node, node.completed + 1, node.clock
            ):
                self._unblock(node, max(node.clock, node.block_since))

    # -- event loop -------------------------------------------------------------

    def _push(self, time: float, kind: int, node: int, payload=None) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, kind, node, self._seq, payload))

    def _target_met(self, target: int) -> bool:
        return all(
            node.completed >= target or self._left_behind(node)
            for node in self._nodes
        )

    def _left_behind(self, node: _NodeState) -> bool:
        """Whether every neighbor has written this server off as a straggler."""
        neighbors = self.trainer.servers[node.node_id].neighbors
        return bool(neighbors) and all(
            node.node_id in self._nodes[j].degraded for j in neighbors
        )

    def _dispatch(self, event: tuple, target: int) -> None:
        time, kind, node_id, _, payload = event
        if kind == _READY:
            self._on_ready(time, node_id, target)
        elif kind == _ARRIVAL:
            self._on_arrival(time, node_id, payload)
        else:
            self._on_timeout(time, node_id, payload)

    def _observed_at(self, edge: tuple[int, int], time: float) -> int:
        """Highest sender round notified on ``edge`` by local time ``time``."""
        index = bisect.bisect_right(self._arrival_times[edge], time)
        return self._arrival_rounds[edge][index - 1] if index else -1

    def _notified_time(self, edge: tuple[int, int], horizon: int) -> float | None:
        """When ``edge``'s notifications first reached ``horizon`` (None: not yet)."""
        rounds = self._arrival_rounds[edge]
        index = bisect.bisect_left(rounds, horizon)
        if index == len(rounds):
            return None
        return self._arrival_times[edge][index]

    def _lagging(self, node: _NodeState, next_round: int, time: float) -> list[int]:
        horizon = next_round - 1 - self.tau
        return [
            j
            for j in self.trainer.servers[node.node_id].neighbors
            if j not in node.degraded
            and self._observed_at((j, node.node_id), time) < horizon
        ]

    def _on_ready(self, time: float, node_id: int, target: int) -> None:
        node = self._nodes[node_id]
        next_round = node.completed + 1
        if next_round > target:
            # The trainer has not asked for this round yet; resume from the
            # same barrier-clear time when it does.
            node.parked_at = time
            return
        lagging = self._lagging(node, next_round, time)
        if not lagging:
            self._run_round(node, next_round, time)
            return
        # Behind the staleness barrier. If every missing notification has in
        # fact already been processed by the event loop (the trainer's
        # round-by-round driver runs ahead of slow local clocks), the wake
        # time is known outright: the latest of their arrival times.
        horizon = next_round - 1 - self.tau
        wake = 0.0
        for j in lagging:
            notified = self._notified_time((j, node_id), horizon)
            if notified is None:
                wake = None
                break
            wake = max(wake, notified)
        if wake is not None and (
            self.patience is None or wake - time <= self.patience
        ):
            self.blocked_time_s += wake - time
            self._push(wake, _READY, node_id)
            return
        node.blocked = True
        node.block_epoch += 1
        node.block_since = time
        if self.patience is not None:
            self._push(time + self.patience, _TIMEOUT, node_id, node.block_epoch)

    def _unblock(self, node: _NodeState, time: float) -> None:
        node.blocked = False
        node.block_epoch += 1
        self.blocked_time_s += time - node.block_since
        self._push(time, _READY, node.node_id)

    def _on_arrival(self, time: float, node_id: int, payload: dict) -> None:
        source = payload["source"]
        sender_round = payload["round"]
        node = self._nodes[node_id]
        edge = (source, node_id)
        if sender_round > self._arrival_rounds[edge][-1]:
            self._arrival_times[edge].append(time)
            self._arrival_rounds[edge].append(sender_round)
        message = payload.get("message")
        if message is not None:
            if node.completed >= sender_round:
                self._apply(message, node_id)
            else:
                self._buffers[edge].append(message)
            # A degraded neighbor that shows fresh-enough progress is revived.
            if (
                source in node.degraded
                and sender_round >= node.completed - self.tau
            ):
                node.degraded.discard(source)
        if node.blocked and not self._lagging(node, node.completed + 1, time):
            self._unblock(node, time)

    def _on_timeout(self, time: float, node_id: int, epoch: int) -> None:
        node = self._nodes[node_id]
        if not node.blocked or node.block_epoch != epoch:
            return
        for j in self._lagging(node, node.completed + 1, time):
            node.degraded.add(j)
            self.degraded_events += 1
        self._unblock(node, time)

    # -- one local round --------------------------------------------------------

    def _run_round(self, node: _NodeState, k: int, t_start: float) -> None:
        trainer = self.trainer
        node_id = node.node_id
        server = trainer.servers[node_id]
        plan = trainer.fault_plan
        down = plan.failed_nodes(trainer.topology, k)
        multiplier = plan.compute_multiplier(trainer.topology, node_id, k)
        t_done = t_start + self.timing.compute_time(node_id) * multiplier

        if node_id in down:
            # A crashed server skips the round entirely, but its peers still
            # learn it is alive-in-protocol: the zero-byte notices keep the
            # staleness barrier moving (a silent crash cannot deadlock τ=0).
            for neighbor in server.neighbors:
                self._schedule_notice(node_id, neighbor, k, t_done)
        else:
            self._note_staleness(node, k, t_start)
            server.step(node.degraded)
            server.advance_views()
            # Frames that raced ahead of this server apply now, after the
            # view layers shifted — the reference's receive ordering.
            for neighbor in server.neighbors:
                buffer = self._buffers.get((neighbor, node_id))
                while buffer and buffer[0].round_index <= k:
                    self._apply(buffer.popleft(), node_id)
            # An offline peer gets no frame, but progress is still gossiped.
            # A stage end restarts now: under τ > 0 it may step again first.
            if trainer.send_round(
                server,
                k,
                down,
                transmit=partial(self._transmit, k, t_done),
                offline=partial(
                    self._schedule_notice, node_id, sender_round=k, t_sent=t_done
                ),
            ):
                self.restart([node_id])

        node.completed = k
        node.clock = t_done
        self._push(t_done, _READY, node_id)

    def _transmit(
        self, k: int, t_done: float, source: int, neighbor: int, message, stage
    ) -> bool:
        """This engine's wire for :meth:`SNAPTrainer.send_round`.

        A frame on a link the fault plan has down sends the notice instead.
        Any other frame's bytes cross the wire: it is buffered for the
        canonical-order ledger flush and scheduled to arrive — a corrupted
        one is observed, never applied (its header still carries the sender
        round).
        """
        plan, topology = self.trainer.fault_plan, self.trainer.topology
        if not plan.link_up(topology, source, neighbor, k):
            self._schedule_notice(source, neighbor, k, t_done)
            return False
        size = message.size_bytes
        self._record_flow(k, source, neighbor, size, stage)
        self.frames_wire += 1
        self.bytes_wire += size
        delivered = not plan.corrupted(topology, source, neighbor, k)
        if delivered:
            self._round_params_sent[k] += message.n_sent
            self._round_delivered[k].append((source, neighbor))
            self._outstanding[(source, neighbor)] += 1
        else:
            self.frames_corrupt += 1
            self.bytes_corrupt += size
            message = None
        self._schedule_arrival(source, neighbor, k, t_done, message, size)
        return delivered

    def _note_staleness(self, node: _NodeState, k: int, time: float) -> None:
        """Record how old each non-degraded in-edge is as round ``k`` starts."""
        for j in self.trainer.servers[node.node_id].neighbors:
            if j in node.degraded:
                continue
            edge = (j, node.node_id)
            gap = (k - 1) - self._observed_at(edge, time)
            if gap > self.max_progress_staleness:
                self.max_progress_staleness = gap
            if (k - 1) - self._last_applied[edge] > 0:
                self.stale_view_rounds[edge] += 1

    # -- notifications ----------------------------------------------------------

    def _fifo_time(self, edge: tuple[int, int], time: float) -> float:
        """Clamp an arrival behind the edge's previous one (one TCP stream)."""
        time = max(time, self._edge_last_arrival.get(edge, 0.0))
        self._edge_last_arrival[edge] = time
        return time

    def _schedule_arrival(
        self,
        source: int,
        destination: int,
        sender_round: int,
        t_sent: float,
        message,
        size_bytes: int,
    ) -> None:
        edge = (source, destination)
        arrival = self._fifo_time(
            edge, t_sent + self.timing.transfer_s(source, destination, size_bytes)
        )
        self._push(
            arrival,
            _ARRIVAL,
            destination,
            {"source": source, "round": sender_round, "message": message},
        )

    def _schedule_notice(
        self, source: int, destination: int, sender_round: int, t_sent: float
    ) -> None:
        """A zero-byte progress notice: no flow, no cost, just liveness."""
        edge = (source, destination)
        arrival = self._fifo_time(edge, t_sent + self.timing.latency_s)
        self._push(
            arrival,
            _ARRIVAL,
            destination,
            {"source": source, "round": sender_round, "message": None},
        )

    def _apply(self, message, destination: int) -> None:
        edge = (message.sender, destination)
        if message.round_index <= self._last_applied[edge]:
            self.monotonic_views = False
        else:
            self._last_applied[edge] = message.round_index
        self.trainer.servers[destination].receive_update(message)
        self._outstanding[edge] -= 1
        self.frames_applied += 1
        self.bytes_applied += message.size_bytes

    def _settle_arrivals(self) -> None:
        """Process every pending arrival (any tag ≤ the met target).

        The trainer's round boundary is an observation barrier: in-flight
        traffic lands (or is buffered for servers still behind) so the
        monitor and the digest see a settled fleet. Execution events stay
        queued — a left-behind straggler is *not* fast-forwarded here.
        """
        kept = []
        while self._heap:
            event = heapq.heappop(self._heap)
            if event[1] == _ARRIVAL:
                self._on_arrival(event[0], event[2], event[4])
            else:
                kept.append(event)
        for event in kept:
            heapq.heappush(self._heap, event)

    # -- ledger flush -----------------------------------------------------------

    def _record_flow(
        self, sender_round: int, source: int, destination: int, size: int, stage
    ) -> None:
        per_node = self._flow_buffer.setdefault(sender_round, {})
        per_node.setdefault(source, []).append((destination, size, stage))

    def _flush_flows(self, target: int) -> None:
        """Replay buffered flows in reference order: round-major, sender asc.

        One ledger batch per sender round, as the reference engine writes it.
        """
        tracker = self.trainer.tracker
        flows = FlowBatch()
        for sender_round in sorted(r for r in self._flow_buffer if r <= target):
            per_node = self._flow_buffer.pop(sender_round)
            for source in sorted(per_node):
                for destination, size, stage in per_node[source]:
                    flows.add(source, destination, size, stage)
            flows.flush(tracker, sender_round)

    # -- observation (monitor / results plumbing) -------------------------------

    def in_flight_edges(self) -> set[tuple[int, int]]:
        """Directed edges with delivered-but-not-yet-applied frames.

        On these edges ``last_sent`` has advanced past the receiver's view,
        so the error-feedback identity is legitimately deferred, not broken.
        """
        return {edge for edge, count in self._outstanding.items() if count > 0}

    def semi_sync_invariants(self) -> dict:
        """The quantities the InvariantMonitor's semi-sync check asserts.

        ``outstanding`` is tracked per-edge at schedule/apply time;
        ``buffered`` counts frames physically sitting in the reorder
        buffers. At a trainer round boundary (arrivals settled) both must
        equal ``wire - applied - corrupted`` — three independently
        maintained ledgers agreeing on where every frame went.
        """
        buffered_frames = sum(len(buf) for buf in self._buffers.values())
        buffered_bytes = sum(
            message.size_bytes
            for buf in self._buffers.values()
            for message in buf
        )
        return {
            "tau": self.tau,
            "max_progress_staleness": self.max_progress_staleness,
            "monotonic_views": self.monotonic_views,
            "frames": {
                "wire": self.frames_wire,
                "applied": self.frames_applied,
                "corrupted": self.frames_corrupt,
                "outstanding": sum(self._outstanding.values()),
                "buffered": buffered_frames,
            },
            "bytes": {
                "wire": self.bytes_wire,
                "applied": self.bytes_applied,
                "corrupted": self.bytes_corrupt,
                "buffered": buffered_bytes,
            },
        }

    def timing_summary(self) -> dict:
        """JSON-safe virtual-time report for results and benchmarks."""
        left_behind = [
            node.node_id for node in self._nodes if self._left_behind(node)
        ]
        clocks = {str(node.node_id): node.clock for node in self._nodes}
        fleet = [
            node.clock for node in self._nodes if not self._left_behind(node)
        ]
        return {
            "tau": self.tau,
            "straggler_patience_s": self.patience,
            "makespan_s": max((n.clock for n in self._nodes), default=0.0),
            "fleet_makespan_s": max(fleet, default=0.0),
            "node_clock_s": clocks,
            "node_rounds": {
                str(node.node_id): node.completed for node in self._nodes
            },
            "left_behind": left_behind,
            "degraded_events": self.degraded_events,
            "blocked_time_s": self.blocked_time_s,
            "max_progress_staleness": self.max_progress_staleness,
            "stale_view_rounds": {
                f"{src}->{dst}": count
                for (src, dst), count in sorted(self.stale_view_rounds.items())
            },
        }
