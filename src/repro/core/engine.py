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
the same protocol over real sockets. All four subclass :class:`Engine`, which
declares the protocol once with a default for every optional phase; its
:class:`EngineState` of columns is the one run-state format, read by
:meth:`Engine.state` (the monitor, the digest, checkpoints) and written by
:meth:`Engine.load_state`.

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
from dataclasses import dataclass, replace
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csr_matrix

from repro.core.config import StragglerStrategy
from repro.network.cost import FlowBatch
from repro.weights.validation import edge_weights

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trainer imports us)
    from repro.core.trainer import SNAPTrainer


class DeliveredEdges:
    """The directed edges delivered one round, as two int64 columns.

    What every engine's ``communicate`` returns: arrays rather than a
    ``set`` of tuples, so a round at N=4096 (tens of thousands of delivered
    edges) materializes no per-pair Python objects. The trainer's staleness
    and connectivity bookkeeping read :attr:`sources` / :attr:`destinations`.
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

    def __repr__(self) -> str:
        return f"DeliveredEdges(n={len(self)})"


@dataclass(frozen=True)
class EngineState:
    """Run state as read-only columns: the one format in and out of an engine.

    Per node: ``params``, ``previous_params`` and ``previous_gradient``
    (where ``has_previous``: EXTRA's two-term memory, cleared only by
    :meth:`Engine.restart`), ``iteration``. Per directed edge ``e``, by
    source then destination: ``views[e]`` is what ``dst[e]`` holds of
    ``src[e]``, ``last_sent[e]`` what ``src[e]`` believes that is,
    ``fresh[e]`` whether it arrived this round, ``previous_views[e]`` and
    ``previous_fresh[e]`` the same one layer back (where
    ``has_previous[dst[e]]``). On the vectorized engine the columns
    view its own arrays and ``last_sent`` *is* ``views`` (PERFORMANCE.md
    identity 1); the per-edge engines gather copies from their servers
    (:func:`gather_state`).
    """

    params: np.ndarray
    previous_params: np.ndarray
    previous_gradient: np.ndarray
    has_previous: np.ndarray
    iteration: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    views: np.ndarray
    last_sent: np.ndarray
    fresh: np.ndarray
    previous_views: np.ndarray
    previous_fresh: np.ndarray

    def __post_init__(self) -> None:
        for name, array in list(vars(self).items()):
            view = array.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)


def edge_blocks(src: np.ndarray, dst: np.ndarray, n_nodes: int):
    """Node ``i``'s out-edge rows ``blocks[i]:blocks[i + 1]``, and ``reverse``.

    Edges are sorted by ``(src, dst)``, and ``reverse[e]`` is the edge
    ``(dst -> src)``: a column read on the receiving ends is ``column[reverse]``.
    """
    blocks = np.searchsorted(src, np.arange(n_nodes + 1)).tolist()
    reverse = np.searchsorted(src * n_nodes + dst, dst * n_nodes + src)
    return blocks, reverse


def gather_state(servers, src, dst) -> EngineState:
    """The run state of ``servers`` over the directed edges ``(src, dst)``.

    Each edge's two ends are read from its two servers, so the per-edge
    engines stay honest oracles; node by node, by C-level maps, so no Python
    line runs per edge.
    """
    params = np.stack([server.params for server in servers])
    n_nodes, d = params.shape
    zero = np.zeros(d)
    blocks, reverse = edge_blocks(src, dst, n_nodes)
    neighbors = dst.tolist()
    views, last_sent, fresh, previous_views, previous_fresh = [], [], [], [], []
    for i, server in enumerate(servers):
        around = neighbors[blocks[i] : blocks[i + 1]]
        views.extend(map(server.views.__getitem__, around))
        last_sent.extend(map(server.last_sent.__getitem__, around))
        fresh.extend(map(server.fresh.__getitem__, around))
        # A previous layer is all of a server's neighbors or none.
        previous_views.extend(map(server.previous_views.get, around, repeat(zero)))
        previous_fresh.extend(map(server.previous_fresh.get, around, repeat(True)))

    def rows(arrays) -> np.ndarray:
        return np.asarray(arrays, dtype=float).reshape(-1, d)

    previous = [server.previous_params for server in servers]
    gradients = [server._previous_gradient for server in servers]
    return EngineState(
        params=params,
        previous_params=rows([zero if p is None else p for p in previous]),
        previous_gradient=rows([zero if g is None else g for g in gradients]),
        has_previous=np.asarray([p is not None for p in previous], dtype=bool),
        iteration=np.asarray([server.iteration for server in servers], dtype=np.int64),
        src=src,
        dst=dst,
        views=rows(views)[reverse],
        last_sent=rows(last_sent),
        fresh=np.asarray(fresh, dtype=bool)[reverse],
        previous_views=rows(previous_views)[reverse],
        previous_fresh=np.asarray(previous_fresh, dtype=bool)[reverse],
    )


def scatter_state(state: EngineState, servers) -> None:
    """Write ``state`` onto ``servers``: the inverse of :func:`gather_state`.

    Node by node: one copy of each column is handed out as rows, so every
    server array is its own memory, shared with no engine stack, no state
    column and no other server array.
    """
    blocks, reverse = edge_blocks(state.src, state.dst, len(servers))
    neighbors = state.dst.tolist()
    params = state.params.copy()
    previous_params = state.previous_params.copy()
    previous_gradient = state.previous_gradient.copy()
    views = state.views[reverse]
    last_sent = state.last_sent.copy()
    previous_views = state.previous_views[reverse]
    fresh = state.fresh[reverse].tolist()
    previous_fresh = state.previous_fresh[reverse].tolist()
    has_previous = state.has_previous.tolist()
    iterations = state.iteration.tolist()
    for i, server in enumerate(servers):
        lo, hi = blocks[i], blocks[i + 1]
        around = neighbors[lo:hi]
        server.params = params[i]
        if has_previous[i]:
            server.previous_params = previous_params[i]
            server._previous_gradient = previous_gradient[i]
        else:
            server.previous_params = None
            server._previous_gradient = None
        server.iteration = iterations[i]
        server.views = dict(zip(around, views[lo:hi]))
        server.last_sent = dict(zip(around, last_sent[lo:hi]))
        server.fresh = dict(zip(around, fresh[lo:hi]))
        server.previous_views = (
            dict(zip(around, previous_views[lo:hi])) if has_previous[i] else {}
        )
        server.previous_fresh = dict(zip(around, previous_fresh[lo:hi]))


def carry_rows(column: np.ndarray, rows: np.ndarray, added) -> np.ndarray:
    """A new array whose row ``e`` is ``column[rows[e]]``, or ``added`` where
    ``rows[e]`` is −1 (the ``Topology.edge_rows`` of a link that is new)."""
    moved = np.empty((rows.size, *column.shape[1:]), dtype=column.dtype)
    kept = rows >= 0
    moved[kept] = column[rows[kept]]
    moved[~kept] = added
    return moved


def reindex_state(state: EngineState, rows: np.ndarray, src, dst) -> EngineState:
    """``state`` moved onto the directed edges ``(src, dst)`` at a round boundary.

    A surviving edge carries every per-edge column through ``rows``
    (:func:`carry_rows`); an added edge starts as at round zero, with
    ``views = last_sent = params[src]`` and fresh. Every per-node column,
    ``has_previous`` included, is carried as it is: which nodes restart
    EXTRA is :meth:`SNAPTrainer._reload`'s call.
    """
    seeds = state.params[src[rows < 0]]
    return replace(
        state,
        src=src,
        dst=dst,
        views=carry_rows(state.views, rows, seeds),
        last_sent=carry_rows(state.last_sent, rows, seeds),
        fresh=carry_rows(state.fresh, rows, True),
        previous_views=carry_rows(state.previous_views, rows, 0.0),
        previous_fresh=carry_rows(state.previous_fresh, rows, True),
    )


class Engine:
    """The protocol ``SNAPTrainer.run`` drives, with every optional phase's default.

    A subclass implements ``step_round(round_index, down)`` (the local EXTRA
    steps of the servers not down) and ``communicate(round_index, down)``
    (the sends; returns the values delivered and a :class:`DeliveredEdges`),
    and overrides the rest where it keeps state of its own. The defaults fit
    an engine whose servers (``self.trainer.servers``) *are* the state, as
    on the per-edge engines, which build them at construction. The
    vectorized engine's state is its arrays: its servers are built by the
    first read of ``trainer.servers`` (a caller or a ``run(on_round=...)``
    callback), and only then does it ingest and write back.
    """

    def begin_run(self) -> None:
        """Ingest the servers' state at the start of a ``run()`` call."""

    def round_down(self, round_index: int, down: frozenset) -> frozenset | None:
        """The round's down set, or ``None`` to end the run before the round."""
        return down

    def sync_to_servers(self) -> None:
        """Write engine-held state back onto the server objects."""

    def rebuild(self) -> None:
        """Re-derive what the engine takes from the trainer's topology, W and
        shards at a round boundary; :meth:`load_state` follows."""

    def in_flight_edges(self) -> frozenset:
        """Directed edges with a delivered frame the receiver has not applied."""
        return frozenset()

    def timing_summary(self) -> dict | None:
        """A virtual-clock report for ``TrainingResult.info``, if one is kept."""
        return None

    def semi_sync_invariants(self) -> dict | None:
        """The deferred-delivery ledgers the ``semi-sync`` check asserts, if any."""
        return None

    def stacked_params(self) -> np.ndarray:
        """The ``(N, d)`` matrix of current per-server parameters."""
        return np.stack([server.params for server in self.trainer.servers])

    def mean_local_loss(self) -> float:
        """The mean of the servers' local losses."""
        return float(
            np.mean([server.local_loss() for server in self.trainer.servers])
        )

    def state(self) -> EngineState:
        """The run state as columns, gathered from the server objects."""
        return gather_state(
            self.trainer.servers, *self.trainer.topology.directed_edges
        )

    def load_state(self, state: EngineState) -> None:
        """Overwrite the run state with ``state``."""
        scatter_state(state, self.trainer.servers)

    def restart(self, nodes) -> None:
        """Restart EXTRA at ``nodes``, the one place its memory is cleared:
        at a stage end, and on every node in :meth:`SNAPTrainer._reload`."""
        servers = self.trainer.servers
        for node in nodes:
            servers[node].restart_recursion()


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


class ReferenceEngine(Engine):
    """The per-object oracle: delegates every phase to the EdgeServer code."""

    name = "reference"

    def __init__(self, trainer: "SNAPTrainer"):
        self.trainer = trainer

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
        batch after the last sender, and the servers whose Algorithm 1 stage
        ended :meth:`restart` together.
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

        restarting = [
            server.node_id
            for server in active
            if trainer.send_round(server, round_index, down, transmit)
        ]
        flows.flush(tracker, round_index)
        self.restart(restarting)
        return params_sent, DeliveredEdges.from_pairs(delivered)


class VectorizedEngine(Engine):
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
        self.n_nodes = trainer.topology.n_nodes
        self.n_params = trainer.model.n_params
        self.scales = np.asarray(trainer._objective_scales, dtype=float)
        self.rebuild()
        # A fresh engine is a fresh fleet: every server and every view holds
        # x^0, no previous layer, every flag fresh.
        self._stack_current[:] = trainer.initial_params
        self._forget_edge_states()

    def rebuild(self) -> None:
        """Re-derive the edge layout, both mixing CSRs and the prepared shards
        from the trainer, over zeroed state arrays that :meth:`load_state`
        (or construction's ``x^0``) fills."""
        self._build_edge_structures()
        self.prepared = self.trainer.model.prepare_shards(
            [(shard.X, shard.y) for shard in self.trainer.shards]
        )
        self._allocate_state()

    def _build_edge_structures(self) -> None:
        """Derive the directed-edge layout and mixing CSRs from the trainer.

        The iteration order (source ascending, neighbors ascending) is the
        reference engine's flow order, so a layout rebuilt after a swap
        reproduces the reference bit for bit on the new graph too.
        """
        topology = self.trainer.topology
        self.edge_src, self.edge_dst = topology.directed_edges
        self.n_edges = self.edge_src.size
        #: Node ``i``'s out-edges are rows ``_blocks[i]:_blocks[i + 1]``, and
        #: ``_in_edges[e]`` is the reverse of edge ``e``, so node ``i``'s
        #: block of it lists the edges ``(j -> i)`` over its neighbors ``j``
        #: ascending: the rows of its ``views``, where the block of the edge
        #: rows themselves holds its ``last_sent``.
        self._blocks, self._in_edges = edge_blocks(
            self.edge_src, self.edge_dst, self.n_nodes
        )

        # The floats the servers mix with: W read onto the link index.
        own_w, edge_w = edge_weights(self.trainer.weight_matrix, topology)
        self._mix_current = self._build_mixing(own_w, edge_w, w_tilde=False)
        self._mix_previous = self._build_mixing(own_w, edge_w, w_tilde=True)

        # Robust aggregation runs the mixing as a per-node loop through the
        # same repro.core.robust.robust_mix the reference servers call, so
        # the operands (in-edge view rows and weights, ascending-neighbor
        # order) are laid out here once per topology.
        if self.trainer.config.robust_aggregation is not None:
            self._robust_in_edges = [
                self._in_edges[lo:hi].tolist()
                for lo, hi in zip(self._blocks, self._blocks[1:])
            ]
            self._robust_weights = self.trainer._server_weights()

    def _allocate_state(self) -> None:
        """Allocate the state arrays and scratch for ``n_nodes`` and ``n_edges``."""
        d = self.n_params
        self._stack_current = np.zeros((self.n_nodes + self.n_edges, d))
        self._stack_previous = np.zeros((self.n_nodes + self.n_edges, d))
        self.params = self._stack_current[: self.n_nodes]
        self.views = self._stack_current[self.n_nodes :]
        self.previous_params = self._stack_previous[: self.n_nodes]
        self.previous_views = self._stack_previous[self.n_nodes :]
        self.fresh = np.ones(self.n_edges, dtype=bool)
        self.previous_fresh = np.ones(self.n_edges, dtype=bool)
        self.previous_gradients = np.zeros((self.n_nodes, d))
        self.has_previous = np.zeros(self.n_nodes, dtype=bool)
        self.iterations = np.zeros(self.n_nodes, dtype=np.int64)
        #: Persistent (N + E, d) scratch of the REWEIGHT substitution.
        self._subst_scratch: np.ndarray | None = None

    def _build_mixing(
        self, own_w: np.ndarray, edge_w: np.ndarray, w_tilde: bool
    ) -> csr_matrix:
        """CSR mixing operator over the ``(N + E, d)`` state stack.

        ``own_w[i]`` is ``W[i, i]`` and ``edge_w[e]`` the weight of edge
        ``e``'s destination in its source's row, so node ``i``'s block lists
        its neighbors' weights in ascending-neighbor order.

        Stored-entry order per row — diagonal first, then ascending
        neighbors — reproduces the sequential accumulation order of
        ``EdgeServer.step``; scipy's CSR matmul sums entries in stored
        order, so the floating point result is identical. Indices are
        intentionally left unsorted (column N+e carries no order relation
        to the accumulation).
        """
        n = self.n_nodes
        indptr = np.arange(n + 1) + np.asarray(self._blocks)
        diagonal = indptr[:-1]
        # Edge e is entry e - blocks[i] of node i's block, after i's diagonal.
        off_diagonal = np.arange(self.n_edges) + self.edge_src + 1
        data = np.empty(n + self.n_edges)
        indices = np.empty(n + self.n_edges, dtype=np.int32)
        data[diagonal] = 0.5 * (own_w + 1.0) if w_tilde else own_w
        data[off_diagonal] = 0.5 * edge_w if w_tilde else edge_w
        indices[diagonal] = np.arange(n)
        indices[off_diagonal] = n + self._in_edges
        return csr_matrix(
            (data, indices, indptr.astype(np.int32)),
            shape=(n, n + self.n_edges),
        )

    # -- run boundaries ---------------------------------------------------------

    def begin_run(self) -> None:
        """Load what the trainer's servers hold if built; forget the edge states.

        With no server built the arrays are the only state, so there is
        nothing to ingest.
        """
        servers = self.trainer._servers
        if servers is None:
            self._forget_edge_states()
        else:
            self.load_state(gather_state(servers, self.edge_src, self.edge_dst))

    def load_state(self, state: EngineState) -> None:
        """Copy ``state``'s columns into the arrays, then sync any built servers."""
        for name, array in self._columns().items():
            array[...] = getattr(state, name)
        self._forget_edge_states()
        self.sync_to_servers()

    def _forget_edge_states(self) -> None:
        """Drop the edge rows' ties to compressor states.

        Whatever replaced or restored ``trainer._edge_states`` meanwhile is
        picked up on each edge's next eligible round.
        """
        self._state_rows = np.full(self.n_edges, None, dtype=object)
        self._state_adopted = np.zeros(self.n_edges, dtype=bool)

    def sync_to_servers(self) -> None:
        """Write the arrays back onto the servers if built (a first read fills them)."""
        servers = self.trainer._servers
        if servers is not None:
            scatter_state(self.state(), servers)

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
        neighbors = self.trainer.topology.neighbors
        mixed = np.empty((self.n_nodes, self.n_params))
        for i in range(self.n_nodes):
            values = [sub[self.n_nodes + e] for e in self._robust_in_edges[i]]
            own_weight, weights = self._robust_weights[i]
            if not current_layer:
                own_weight = 0.5 * (own_weight + 1.0)
                weights = [0.5 * w for w in weights]
            mixed[i] = robust_mix(
                spec, sub[i], own_weight, neighbors(i), values, weights
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

    def _round_link_down(self, round_index: int) -> np.ndarray:
        """One fault-plan query per round, mapped onto directed edge rows.

        Like ``FaultPlan.link_up``, only a canonical ``(u, v)``, ``u < v``,
        takes a link down; a pair that is not a link (a failure model may
        name a pruned one) maps to no row.
        """
        link_down = np.zeros(self.n_edges, dtype=bool)
        topology = self.trainer.topology
        failed = self.trainer.fault_plan.round_failed_links(topology, round_index)
        if failed:
            u, v = np.asarray(list(failed), dtype=np.int64).reshape(-1, 2).T
            u, v = u[u < v], v[u < v]
            rows = topology.edge_rows(np.concatenate([u, v]), np.concatenate([v, u]))
            link_down[rows[rows >= 0]] = True
        return link_down

    def _view_rows(self, edges: np.ndarray) -> np.ndarray:
        """The view rows of ``edges`` (ascending, unique) as a references matrix.

        With every edge eligible — any round without a crashed server — this
        is the live matrix itself rather than a gathered copy; callers only
        read it.
        """
        return self.views if edges.size == self.n_edges else self.views[edges]

    def _adopt_edge_states(self, edges: np.ndarray) -> np.ndarray:
        """The trainer's compressor states of ``edges`` (created on first use)."""
        for e in edges[~self._state_adopted[edges]].tolist():
            self._state_rows[e] = self.trainer._edge_state(
                int(self.edge_src[e]), int(self.edge_dst[e])
            )
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
        The round is three calls on one compressor: ``begin_round_batch``
        for the active nodes, one ``compress_batch`` over all eligible edges
        into a columnar :class:`~repro.compression.base.PayloadBatch`, and
        ``end_round_batch``, whose nodes :meth:`restart`; sizing, delivery
        and the outcome are array operations on the batch. ``batched``
        compressors (the paper's three policies among them) implement the
        three as array kernels; for the rest the base-class adapters fill
        the batch node by node and edge by edge.
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
            states = None if compressor.batched else self._adopt_edge_states(elig_idx)
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
            batch.deliver(self.views, elig_idx, delivered_mask[elig_idx])
            self.fresh[delivered_idx] = True
        params_sent = int(n_sent[delivered_idx].sum())
        delivered = DeliveredEdges(
            self.edge_src[delivered_idx], self.edge_dst[delivered_idx]
        )

        self.restart(compressor.end_round_batch(ctxs, nodes, compressors))
        return params_sent, delivered

    def restart(self, nodes) -> None:
        """Clear ``has_previous`` at ``nodes``, and restart any built server."""
        self.has_previous[nodes] = False
        if self.trainer._servers is not None:
            super().restart(nodes)

    # -- observation ------------------------------------------------------------

    def stacked_params(self) -> np.ndarray:
        return self.params.copy()

    def mean_local_loss(self) -> float:
        losses = self.trainer.model.batch_losses(self.params, self.prepared)
        return float(np.mean(self.scales * losses))

    def state(self) -> EngineState:
        """Views of the engine's own arrays, no copy; ``last_sent`` is ``views``."""
        return EngineState(
            **self._columns(),
            src=self.edge_src,
            dst=self.edge_dst,
            last_sent=self.views,
        )

    def _columns(self) -> dict:
        """The engine's own arrays, by the :class:`EngineState` column each holds."""
        return {
            "params": self.params,
            "previous_params": self.previous_params,
            "previous_gradient": self.previous_gradients,
            "has_previous": self.has_previous,
            "iteration": self.iterations,
            "views": self.views,
            "fresh": self.fresh,
            "previous_views": self.previous_views,
            "previous_fresh": self.previous_fresh,
        }
