"""Pluggable simulation engines for the SNAP round loop.

Three engines execute the same algorithm (the third, the event-driven
:class:`~repro.core.async_engine.SemiSyncEngine`, lives in its own module):

* :class:`ReferenceEngine` — the original per-object oracle: one
  :class:`~repro.core.server.EdgeServer` per node, per-neighbor
  ``select_parameters`` calls, one :class:`~repro.network.messages.ParameterUpdate`
  per directed edge per round. Easy to read, easy to instrument, slow. Its
  round is :meth:`ReferenceEngine.communicate`: the shared per-edge sender
  ``SNAPTrainer.send_round`` over a wire that asks the fault plan per frame.
* :class:`VectorizedEngine` — the fast path for large sweeps: all N parameter
  vectors live in one ``(N, d)`` matrix, the EXTRA mixing step (8) runs as a
  ``scipy.sparse`` CSR matmul against W and W̃, all N local gradients come
  from one :meth:`~repro.models.base.Model.batch_gradients` call, and the
  communication round is one body for every compression scheme: the
  compressor's batch methods select for all directed edges at once (APE's
  are an ``(E, d)`` threshold kernel) and byte accounting is analytic on
  the resulting :class:`~repro.compression.base.PayloadBatch` instead of
  materialized message objects.

The TCP testbed (:class:`~repro.runtime.testbed.TestbedRuntime`) implements
the same protocol over real sockets, plus the one optional phase
``round_down(round_index, down)``: the round's down set widened (crashed
servers, idle slots), or ``None`` to end the run before the round executes.

The vectorized engine is **bit-for-bit equivalent** to the reference on every
seeded configuration — same ``RoundRecord`` stream, same flow ledger, same
final parameters — because every floating point operation is performed in the
same order on the same operands; only the looping structure changes. The
load-bearing identities (verified by ``tests/core/test_engine_equivalence.py``):

* ``servers[i].last_sent[j]`` and ``servers[j].views[i]`` are always equal
  (same initialization, both advanced only on confirmed delivery with the
  same values), so one view vector per *directed edge* suffices;
* a CSR row times a dense matrix accumulates ``w_ii x_i + Σ_j w_ij x_j`` in
  stored-entry order, matching the server's sequential mixing loop;
* rowwise reductions (``mean(axis=1)``, masked ``max(axis=1)``) equal their
  per-row scalar counterparts on C-contiguous arrays;
* a stacked ``np.matmul`` over a ``(N, n, d)`` tensor hands each batch item to
  the same BLAS ``gemv`` / ``dot`` as the per-shard ``@`` (``np.einsum`` does
  not), so the logistic batch kernels equal the per-server calls — held by
  ``tests/models/test_logistic.py``;
* elementwise float64 arithmetic on the columnar
  :class:`~repro.core.ape.APEScheduleBank` is the scalar Algorithm 1
  transition, row by row — held by ``tests/core/test_ape.py``;
* every ``batched`` compressor's array kernels equal its per-edge methods —
  held by ``tests/compression``.
"""

from __future__ import annotations

import weakref
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csr_matrix

from repro.core.config import StragglerStrategy
from repro.network.cost import FlowBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trainer imports us)
    from repro.core.trainer import SNAPTrainer


class DeliveredEdges:
    """Columnar set-like view of the directed edges delivered one round.

    What every engine's ``communicate`` returns: two int64 arrays rather
    than a ``set`` of tuples, so a round at N=4096 (tens of thousands of
    delivered edges) materializes no per-pair Python objects. It behaves
    like a set where consumed as one — ``len``, iteration, membership,
    equality against a set — while the trainer's staleness and connectivity
    bookkeeping read :attr:`sources` / :attr:`destinations` directly.
    """

    __slots__ = ("sources", "destinations")

    def __init__(self, sources: np.ndarray, destinations: np.ndarray):
        self.sources = sources
        self.destinations = destinations

    @classmethod
    def from_pairs(cls, pairs) -> "DeliveredEdges":
        """From the ``(source, destination)`` tuples a per-edge round collects."""
        columns = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        return cls(columns[:, 0], columns[:, 1])

    def __len__(self) -> int:
        return int(self.sources.size)

    def __iter__(self):
        return iter(zip(self.sources.tolist(), self.destinations.tolist()))

    def __contains__(self, pair) -> bool:
        source, destination = pair
        return bool(
            np.any((self.sources == source) & (self.destinations == destination))
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (DeliveredEdges, set, frozenset)):
            return set(self) == set(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"DeliveredEdges(n={len(self)})"


def build_engine(trainer: "SNAPTrainer"):
    """Instantiate the engine selected by ``trainer.config.engine``.

    The trainer owns its engine, so the engine's back-reference is weak: a
    finished run (tens of MB of prepared shards and edge state) is then
    freed when its trainer is dropped rather than whenever the cyclic
    collector next runs — which the array-at-a-time round, allocating few
    Python objects, rarely provokes.
    """
    trainer = weakref.proxy(trainer)
    if trainer.config.engine == "vectorized":
        return VectorizedEngine(trainer)
    if trainer.config.engine == "semisync":
        # Local import: async_engine imports trainer-adjacent modules.
        from repro.core.async_engine import SemiSyncEngine

        return SemiSyncEngine(trainer)
    return ReferenceEngine(trainer)


class ReferenceEngine:
    """The per-object oracle: delegates every phase to the EdgeServer code."""

    name = "reference"

    def __init__(self, trainer: "SNAPTrainer"):
        self.trainer = trainer

    def begin_run(self) -> None:
        """No private state: the servers *are* the state."""

    def step_round(self, round_index: int, down: frozenset) -> None:
        for server in self.trainer.servers:
            if server.node_id not in down:
                server.step()

    def communicate(
        self, round_index: int, down: frozenset
    ) -> "tuple[int, DeliveredEdges]":
        """Every active server's sending round over the simulated wire.

        View layers shift first, for every active server before any server
        sends (so a failed link leaves the receiver's current layer stale,
        per the straggler rule); then each runs the shared
        :meth:`SNAPTrainer.send_round`. Its wire asks the fault plan whether
        the link is up (a downed link charges nothing), queues the frame's
        one-hop charge, then asks whether the frame arrived damaged
        (charged, never applied); an intact frame is applied to the
        receiver on the spot. The round's charges reach the ledger as one
        batch after the last sender.
        Servers in ``down`` neither advance, send, nor receive this round.

        Returns the parameter values delivered and the edges they crossed.
        """
        trainer = self.trainer
        servers = trainer.servers
        plan, tracker = trainer.fault_plan, trainer.tracker
        topology = trainer.topology
        active = [server for server in servers if server.node_id not in down]
        for server in active:
            server.advance_views()

        params_sent = 0
        delivered: list[tuple[int, int]] = []
        flows = FlowBatch()

        def transmit(source, destination, message, stage) -> bool:
            nonlocal params_sent
            if not plan.link_up(topology, source, destination, round_index):
                return False
            flows.add(source, destination, message.size_bytes, stage)
            if plan.corrupted(topology, source, destination, round_index):
                return False
            servers[destination].receive_update(message)
            params_sent += message.n_sent
            delivered.append((source, destination))
            return True

        for server in active:
            trainer.send_round(server, round_index, down, transmit)
        flows.flush(tracker, round_index)
        return params_sent, DeliveredEdges.from_pairs(delivered)

    def stacked_params(self) -> np.ndarray:
        return np.stack([server.params for server in self.trainer.servers])

    def mean_local_loss(self) -> float:
        return float(
            np.mean([server.local_loss() for server in self.trainer.servers])
        )

    def sync_to_servers(self) -> None:
        """No-op: server objects are always current."""

    def rebuild_topology(self) -> None:
        """No-op: every phase re-reads the trainer's live topology state."""

    def rebuild_data(self) -> None:
        """No-op: servers read their (just-swapped) shards directly."""


class VectorizedEngine:
    """Dense-matrix execution of the SNAP round loop.

    State layout: one ``(N + E, d)`` buffer per recursion layer, where the
    first N rows are the servers' own parameters and row ``N + e`` is the
    view held across directed edge ``e = (src -> dst)`` — "what dst believes
    src's parameters are". Mixing row ``i`` of the CSR matrices reads its
    diagonal entry from row ``i`` and neighbor ``j``'s contribution from the
    edge ``(j -> i)`` row, in ascending-neighbor order, exactly like
    :meth:`EdgeServer.step`.
    """

    name = "vectorized"

    def __init__(self, trainer: "SNAPTrainer"):
        self.trainer = trainer
        topology = trainer.topology
        model = trainer.model
        self.n_nodes = topology.n_nodes
        self.n_params = model.n_params

        self._build_edge_structures()

        self.scales = np.asarray(trainer._objective_scales, dtype=float)
        self.prepared = model.prepare_shards(
            [(shard.X, shard.y) for shard in trainer.shards]
        )

        self._allocate_state()
        self.previous_gradients = np.zeros((self.n_nodes, self.n_params))
        self.has_previous = np.zeros(self.n_nodes, dtype=bool)
        #: Whether each node's previous-layer views exist (advance_views has
        #: run since the last recursion restart) — only affects writeback.
        self.previous_views_valid = np.zeros(self.n_nodes, dtype=bool)
        self.iterations = np.zeros(self.n_nodes, dtype=np.int64)

    def _build_edge_structures(self) -> None:
        """(Re)derive the directed-edge layout and mixing CSRs from the trainer.

        Called at construction and again by :meth:`rebuild_topology` after an
        adaptive swap; the iteration order (source ascending, neighbors
        ascending) is the reference engine's flow order, so a rebuilt layout
        reproduces the reference bit for bit on the pruned graph too.
        """
        topology = self.trainer.topology
        #: Each node's neighbors, ascending: the destinations of its block
        #: of out-edge rows and the sources of its in-edges, in that order.
        self._neighbors = [topology.neighbors(node) for node in range(self.n_nodes)]
        src, dst = [], []
        for node, neighbors in enumerate(self._neighbors):
            src.extend([node] * len(neighbors))
            dst.extend(neighbors)
        self.edge_src = np.asarray(src, dtype=np.int64)
        self.edge_dst = np.asarray(dst, dtype=np.int64)
        self.n_edges = len(src)
        edge_id = {pair: e for e, pair in enumerate(zip(src, dst))}
        #: Node ``i``'s out-edges are rows ``_blocks[i]:_blocks[i + 1]``.
        self._blocks = np.searchsorted(
            self.edge_src, np.arange(self.n_nodes + 1)
        ).tolist()
        #: ``_in_edges[e]`` is the reverse of edge ``e``, so node ``i``'s
        #: block of it lists the edges ``(j -> i)`` over its neighbors ``j``
        #: ascending: the rows of its ``views``, where the block of the edge
        #: rows themselves holds its ``last_sent``.
        self._in_edges = np.asarray(
            [edge_id[(j, i)] for i, j in zip(src, dst)], dtype=np.int64
        )
        #: canonical undirected edge -> the two directed edge ids, for
        #: mapping the failure model's output onto edge rows.
        self._undirected: dict[tuple[int, int], tuple[int, ...]] = {}
        for u, v in topology.edges:
            self._undirected[(u, v)] = (edge_id[(u, v)], edge_id[(v, u)])

        # Each row of W is read once, through the server's weight row (a
        # dict lookup on sparse W, an array row on dense W) — not through
        # scipy's scalar ``W[i, j]``, which costs ~30 µs per entry.
        servers = self.trainer.servers
        own_w, nbr_w = [], []
        for node in range(self.n_nodes):
            row = servers[node].weight_row
            own_w.append(float(row[node]))
            nbr_w.append([float(row[j]) for j in self._neighbors[node]])
        self._mix_current = self._build_mixing(own_w, nbr_w, w_tilde=False)
        self._mix_previous = self._build_mixing(own_w, nbr_w, w_tilde=True)

        # Robust aggregation runs the mixing as a per-node loop through the
        # same repro.core.robust.robust_mix the reference servers call, so
        # the operands (in-edge view rows and weights, ascending-neighbor
        # order) are laid out here once per topology.
        if self.trainer.config.robust_aggregation is not None:
            self._robust_in_edges = [
                self._in_edges[lo:hi].tolist()
                for lo, hi in zip(self._blocks, self._blocks[1:])
            ]
            self._robust_own_w = own_w
            self._robust_nbr_w = nbr_w

    def _allocate_state(self) -> None:
        """Allocate the edge-sized state stacks and scratch for ``n_edges``."""
        d = self.n_params
        self._stack_current = np.zeros((self.n_nodes + self.n_edges, d))
        self._stack_previous = np.zeros((self.n_nodes + self.n_edges, d))
        self.params = self._stack_current[: self.n_nodes]
        self.views = self._stack_current[self.n_nodes :]
        self.previous_params = self._stack_previous[: self.n_nodes]
        self.previous_views = self._stack_previous[self.n_nodes :]
        self.fresh = np.ones(self.n_edges, dtype=bool)
        self.previous_fresh = np.ones(self.n_edges, dtype=bool)
        #: Persistent (N + E, d) scratch of the REWEIGHT substitution.
        self._subst_scratch: np.ndarray | None = None
        self._forget_edge_states()

    def _forget_edge_states(self) -> None:
        """Drop the row-aligned handles on the trainer's compressor edge states.

        The round re-adopts each state on the edge's next eligible
        round (see :meth:`_adopt_edge_states`), so whatever replaced or
        restored ``trainer._edge_states`` meanwhile is what gets picked up.
        """
        self._state_rows = np.full(self.n_edges, None, dtype=object)
        self._state_adopted = np.zeros(self.n_edges, dtype=bool)
        #: (E, d) error-feedback residuals, one row per directed edge;
        #: allocated when the first adopted state carries a residual.
        self._residuals: np.ndarray | None = None

    def rebuild_topology(self) -> None:
        """Adopt the trainer's swapped topology and weight matrix.

        Must be called with the server objects holding the authoritative
        post-swap state (the trainer syncs, swaps the servers, then calls
        this): the edge layout, both mixing CSRs, and the ``(N + E, d)``
        stacks are rebuilt for the pruned graph and re-ingested via
        :meth:`begin_run` — exactly the path a checkpoint resume takes, so
        the rebuilt state is bit-identical to a fresh engine on the new
        topology.
        """
        self._build_edge_structures()
        self._allocate_state()
        self.begin_run()

    def rebuild_data(self) -> None:
        """Adopt the trainer's swapped shards after a drift epoch boundary.

        The trainer syncs, swaps each server's (X, y) and restarts its
        recursion, then calls this: the prepared-shard cache is rebuilt for
        the new data and the restarted server state re-ingested via
        :meth:`begin_run`, so the next round is bit-identical to the
        reference engine's post-swap round.
        """
        trainer = self.trainer
        self.prepared = trainer.model.prepare_shards(
            [(shard.X, shard.y) for shard in trainer.shards]
        )
        self.begin_run()

    def _build_mixing(self, own_w: list, nbr_w: list, w_tilde: bool) -> csr_matrix:
        """CSR mixing operator over the ``(N + E, d)`` state stack.

        ``own_w[i]`` is ``W[i, i]`` and ``nbr_w[i]`` the weights of node
        ``i``'s neighbors in ascending-neighbor order.

        Stored-entry order per row — diagonal first, then ascending
        neighbors — reproduces the sequential accumulation order of
        ``EdgeServer.step``; scipy's CSR matmul sums entries in stored
        order, so the floating point result is identical. Indices are
        intentionally left unsorted (column N+e carries no order relation
        to the accumulation).
        """
        in_edges = (self.n_nodes + self._in_edges).tolist()
        data, indices, indptr = [], [], [0]
        for node in range(self.n_nodes):
            own = own_w[node]
            data.append(0.5 * (own + 1.0) if w_tilde else own)
            indices.append(node)
            for w in nbr_w[node]:
                data.append(0.5 * w if w_tilde else w)
            indices.extend(in_edges[self._blocks[node] : self._blocks[node + 1]])
            indptr.append(len(data))
        return csr_matrix(
            (
                np.asarray(data, dtype=float),
                np.asarray(indices, dtype=np.int32),
                np.asarray(indptr, dtype=np.int32),
            ),
            shape=(self.n_nodes, self.n_nodes + self.n_edges),
        )

    # -- run boundaries ---------------------------------------------------------

    def begin_run(self) -> None:
        """Ingest the servers' current state (fresh run or checkpoint resume).

        Node by node: a server's views and flags are read as one block in
        its neighbors' order — the order of its block of :attr:`_in_edges`
        — and each field lands on the edge rows with one scatter.
        """
        self._forget_edge_states()
        servers = self.trainer.servers
        views, fresh, previous_fresh = [], [], []
        previous_views, previous_rows = [], []
        for i, server in enumerate(servers):
            self.params[i] = server.params
            self.has_previous[i] = server.previous_params is not None
            if server.previous_params is not None:
                self.previous_params[i] = server.previous_params
                self.previous_gradients[i] = server._previous_gradient
            self.previous_views_valid[i] = bool(server.previous_views)
            self.iterations[i] = server.iteration
            neighbors = self._neighbors[i]
            views.extend(map(server.views.__getitem__, neighbors))
            fresh.extend(map(server.fresh.__getitem__, neighbors))
            previous_fresh.extend(
                map(server.previous_fresh.get, neighbors, repeat(True))
            )
            # A previous layer is all of a server's neighbors or none.
            if server.previous_views:
                previous_views.extend(
                    map(server.previous_views.__getitem__, neighbors)
                )
                previous_rows.append(
                    self._in_edges[self._blocks[i] : self._blocks[i + 1]]
                )
        if self.n_edges:
            self.views[self._in_edges] = views
            self.fresh[self._in_edges] = fresh
            self.previous_fresh[self._in_edges] = previous_fresh
        if previous_views:
            self.previous_views[np.concatenate(previous_rows)] = previous_views

    def sync_to_servers(self) -> None:
        """Write the matrix state back onto the EdgeServer objects.

        Keeps checkpointing, callbacks, and every test that inspects
        ``trainer.servers`` working regardless of the engine that ran.
        Node by node: one copy of each stack (the views gathered in
        receiver order once, and once in sender order for ``last_sent``)
        is handed out as rows, so every server array is its own memory,
        shared with no engine stack and no other server array.
        """
        servers = self.trainer.servers
        params = self.params.copy()
        previous_params = self.previous_params.copy()
        previous_gradients = self.previous_gradients.copy()
        views = self.views[self._in_edges]
        last_sent = self.views.copy()
        previous_views = self.previous_views[self._in_edges]
        fresh = self.fresh[self._in_edges].tolist()
        previous_fresh = self.previous_fresh[self._in_edges].tolist()
        has_previous = self.has_previous.tolist()
        previous_valid = self.previous_views_valid.tolist()
        iterations = self.iterations.tolist()
        for i, server in enumerate(servers):
            lo, hi = self._blocks[i], self._blocks[i + 1]
            neighbors = self._neighbors[i]
            server.params = params[i]
            if has_previous[i]:
                server.previous_params = previous_params[i]
                server._previous_gradient = previous_gradients[i]
            else:
                server.previous_params = None
                server._previous_gradient = None
            server.iteration = iterations[i]
            server.views.update(zip(neighbors, views[lo:hi]))
            server.last_sent.update(zip(neighbors, last_sent[lo:hi]))
            server.fresh.update(zip(neighbors, fresh[lo:hi]))
            server.previous_views = (
                dict(zip(neighbors, previous_views[lo:hi]))
                if previous_valid[i]
                else {}
            )
            server.previous_fresh.update(zip(neighbors, previous_fresh[lo:hi]))

    # -- the EXTRA step ---------------------------------------------------------

    def _substituted(
        self, stack: np.ndarray, fresh: np.ndarray, own: np.ndarray
    ) -> np.ndarray:
        """REWEIGHT straggler rule: non-fresh views mix the *receiver's* own row.

        Reuses one persistent ``(N + E, d)`` scratch buffer (safe because the
        two calls per round are consumed sequentially by their matmuls)
        instead of copying the stack every round.
        """
        if self.trainer.config.straggler_strategy is not StragglerStrategy.REWEIGHT:
            return stack
        stale = np.flatnonzero(~fresh)
        if not stale.size:
            return stack
        if self._subst_scratch is None:
            self._subst_scratch = np.empty_like(stack)
        np.copyto(self._subst_scratch, stack)
        self._subst_scratch[self.n_nodes + stale] = own[self.edge_dst[stale]]
        return self._subst_scratch

    def _robust_layer(self, spec, current_layer: bool) -> np.ndarray:
        """One recursion layer of robust mixing, node by node.

        Calls the same :func:`repro.core.robust.robust_mix` as the reference
        servers with the same operands in the same (ascending-neighbor)
        order, over the REWEIGHT-substituted stack, so the result is
        bit-identical to the per-object path. The layer must be consumed
        (it is: copied into a fresh array) before the next `_substituted`
        call reuses the scratch buffer.
        """
        from repro.core.robust import robust_mix

        if current_layer:
            stack, fresh, own = self._stack_current, self.fresh, self.params
        else:
            stack = self._stack_previous
            fresh, own = self.previous_fresh, self.previous_params
        sub = self._substituted(stack, fresh, own)
        mixed = np.empty((self.n_nodes, self.n_params))
        for i in range(self.n_nodes):
            values = [sub[self.n_nodes + e] for e in self._robust_in_edges[i]]
            if current_layer:
                own_weight = self._robust_own_w[i]
                weights = self._robust_nbr_w[i]
            else:
                own_weight = 0.5 * (self._robust_own_w[i] + 1.0)
                weights = [0.5 * w for w in self._robust_nbr_w[i]]
            mixed[i] = robust_mix(
                spec, sub[i], own_weight, self._neighbors[i], values, weights
            )
        return mixed

    def step_round(self, round_index: int, down: frozenset) -> None:
        active = self._active_mask(down)
        gradients = self.scales[:, None] * self.trainer.model.batch_gradients(
            self.params, self.prepared
        )
        robust = self.trainer.config.robust_aggregation
        if robust is not None:
            mixed_current = self._robust_layer(robust, current_layer=True)
            mixed_previous = self._robust_layer(robust, current_layer=False)
        else:
            mixed_current = self._mix_current @ self._substituted(
                self._stack_current, self.fresh, self.params
            )
            mixed_previous = self._mix_previous @ self._substituted(
                self._stack_previous, self.previous_fresh, self.previous_params
            )

        new_first = mixed_current - self.trainer.alpha * gradients
        new_recursion = (
            (self.params + mixed_current)
            - mixed_previous
            - self.trainer.alpha * (gradients - self.previous_gradients)
        )
        new_params = np.where(self.has_previous[:, None], new_recursion, new_first)

        active_col = active[:, None]
        np.copyto(self.previous_params, self.params, where=active_col)
        np.copyto(self.previous_gradients, gradients, where=active_col)
        np.copyto(self.params, new_params, where=active_col)
        self.has_previous |= active
        self.iterations += active

    # -- communication ----------------------------------------------------------

    def _tx_params(self, round_index: int) -> np.ndarray:
        """The (N, d) stack of *transmitted* parameters for this round.

        With no byzantine plan this is ``self.params`` itself (zero copy).
        With a plan, attacker rows are replaced by the attack's transmit
        output — the same per-row call the reference trainer makes via
        ``transmit_params`` — while local state stays honest, so selection,
        byte accounting, and delivered views all see the poisoned vectors
        bit-for-bit like the reference engine.
        """
        plan = self.trainer.byzantine_plan
        if plan is None:
            return self.params
        tx = self.params.copy()
        for node in sorted(self.trainer.byzantine_nodes):
            tx[node] = plan.attack.transmit(self.params[node], node, round_index)
        return tx

    def _active_mask(self, down: frozenset) -> np.ndarray:
        active = np.ones(self.n_nodes, dtype=bool)
        for node in down:
            if 0 <= node < self.n_nodes:
                active[node] = False
        return active

    def _advance_views(self, active: np.ndarray) -> None:
        # advance_views for every active receiver: its incoming edges shift
        # the current layer down and reset freshness pessimistically.
        advancing = active[self.edge_dst]
        np.copyto(self.previous_views, self.views, where=advancing[:, None])
        self.previous_fresh = np.where(advancing, self.fresh, self.previous_fresh)
        self.fresh &= ~advancing
        self.previous_views_valid |= active

    def _round_link_down(self, round_index: int) -> np.ndarray:
        # One fault-plan query per round mapped onto directed edge rows.
        link_down = np.zeros(self.n_edges, dtype=bool)
        trainer = self.trainer
        for edge in trainer.fault_plan.round_failed_links(
            trainer.topology, round_index
        ):
            for e in self._undirected.get(tuple(edge), ()):
                link_down[e] = True
        return link_down

    def _view_rows(self, edges: np.ndarray) -> np.ndarray:
        """The view rows of ``edges`` (ascending, unique) as a references matrix.

        With every edge eligible — any round without a crashed server — this
        is the live matrix itself rather than a gathered copy; callers only
        read it.
        """
        return self.views if edges.size == self.n_edges else self.views[edges]

    def _adopt_edge_states(self, edges: np.ndarray) -> np.ndarray:
        """The trainer's compressor states of ``edges`` (created on first use).

        A newly adopted state is tied to its edge row: ``reference`` becomes
        the live view row and a materialized ``residual`` moves into
        :attr:`_residuals`, so the round can update either for every edge
        with one array write.
        """
        for e in edges[~self._state_adopted[edges]].tolist():
            state = self.trainer._edge_state(
                int(self.edge_src[e]), int(self.edge_dst[e])
            )
            state.reference = self.views[e]
            if state.residual is not None:
                if self._residuals is None:
                    self._residuals = np.zeros((self.n_edges, self.n_params))
                self._residuals[e] = state.residual
                state.residual = self._residuals[e]
            self._state_rows[e] = state
            self._state_adopted[e] = True
        return self._state_rows[edges]

    def communicate(
        self, round_index: int, down: frozenset
    ) -> "tuple[int, DeliveredEdges]":
        """The communication round, for every compression scheme.

        Mirrors the reference engine's per-edge round
        (:meth:`ReferenceEngine.communicate` over
        :meth:`SNAPTrainer.send_round`) exactly — same eligibility rules,
        same per-edge operands (a transmitted parameter row and the live
        view row for that directed edge), same outcome ordering — so every
        compressor inherits bit-for-bit engine parity.
        The round is four calls on one compressor: ``begin_round_batch``
        for the active nodes, one ``compress_batch`` / ``settle_batch``
        pair over all eligible edges on a columnar
        :class:`~repro.compression.base.PayloadBatch`, and
        ``end_round_batch``; sizing, delivery and the outcome are array
        operations on the batch. ``batched`` compressors (the paper's three
        policies among them) implement the four as array kernels; for the
        rest the base-class adapters fill the batch node by node and edge
        by edge.
        """
        trainer = self.trainer
        active = self._active_mask(down)
        self._advance_views(active)
        tx = self._tx_params(round_index)

        compressors = trainer.compressors
        compressor = compressors[0]
        nodes = np.flatnonzero(active)
        ctxs = compressor.begin_round_batch(tx, nodes, round_index, compressors)

        # A message exists for every active-src, active-dst edge (even over a
        # failed link: the sender builds it before the fault plan drops it).
        eligible = active[self.edge_src] & active[self.edge_dst]
        elig_idx = np.flatnonzero(eligible)
        d = self.n_params
        sizes = np.zeros(self.n_edges, dtype=np.int64)
        n_sent = np.zeros(self.n_edges, dtype=np.int64)
        if elig_idx.size:
            sources = self.edge_src[elig_idx]
            currents = tx[sources]
            states = (
                self._adopt_edge_states(elig_idx)
                if compressor.keeps_edge_state
                else None
            )
            batch = compressor.compress_batch(
                currents, self._view_rows(elig_idx), states, ctxs[sources]
            )
            n_sent[elig_idx] = batch.n_sent
            sizes[elig_idx] = batch.wire_bytes(d)

        wire = eligible & ~self._round_link_down(round_index)
        wire_idx = np.flatnonzero(wire)
        wire_src, wire_dst = self.edge_src[wire_idx], self.edge_dst[wire_idx]
        damaged = trainer.fault_plan.corruption.corrupted_edges(
            trainer.topology, wire_src, wire_dst, round_index
        )
        delivered_mask = wire
        if damaged.any():
            delivered_mask = wire.copy()
            delivered_mask[wire_idx[damaged]] = False

        if wire_idx.size:
            trainer.tracker.record_many(
                round_index,
                wire_src,
                wire_dst,
                sizes[wire_idx],
                hops=1,
                stage=compressor.name,
            )

        delivered_idx = np.flatnonzero(delivered_mask)
        if elig_idx.size:
            outcome = delivered_mask[elig_idx]
            batch.deliver(self.views, elig_idx, outcome)
            self.fresh[delivered_idx] = True
            # The outcome observes the post-round references (the live view
            # rows, advanced by the delivery writes above), matching the
            # reference engine's mark_delivered-then-hook ordering.
            residuals = compressor.settle_batch(
                batch, outcome, currents, self._view_rows(elig_idx), states
            )
            if residuals is not None:
                self._residuals[elig_idx] = residuals
        params_sent = int(n_sent[delivered_idx].sum())
        delivered = DeliveredEdges(
            self.edge_src[delivered_idx], self.edge_dst[delivered_idx]
        )

        # Algorithm 1 stage boundary: restart the EXTRA recursion.
        restarting = compressor.end_round_batch(ctxs, nodes, compressors)
        self.has_previous[restarting] = False
        self.previous_views_valid[restarting] = False
        return params_sent, delivered

    # -- observation ------------------------------------------------------------

    def stacked_params(self) -> np.ndarray:
        return self.params.copy()

    def mean_local_loss(self) -> float:
        losses = self.trainer.model.batch_losses(self.params, self.prepared)
        return float(np.mean(self.scales * losses))
