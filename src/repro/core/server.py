"""One simulated edge server: local data, model replica, EXTRA state, views.

Each server implements the per-node EXTRA update (8) of the paper:

.. math::

    x^1_{(i)} &= \\sum_j w_{ij} x^0_{(j)} - \\alpha \\nabla f_i(x^0_{(i)}) \\\\
    x^{k+2}_{(i)} &= x^{k+1}_{(i)}
        + \\sum_j w_{ij} x^{k+1}_{(j)}
        - \\sum_j \\widetilde w_{ij} x^k_{(j)}
        - \\alpha (\\nabla f_i(x^{k+1}_{(i)}) - \\nabla f_i(x^k_{(i)}))

but — crucially — the neighbor terms :math:`x_{(j)}` are the server's *cached
views*, updated only by the parameters the neighbors actually transmitted
(and not at all across failed links). Own parameters and own gradients are
always exact. This is precisely the message-level semantics that makes the
APE analysis of Section IV-C necessary.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import StragglerStrategy
from repro.exceptions import ConfigurationError, ProtocolError
from repro.models.base import Model
from repro.network.messages import ParameterUpdate
from repro.types import NodeId, Params


class EdgeServer:
    """State and update rule of one edge server.

    Parameters
    ----------
    node_id:
        This server's index (row in the stacked parameter matrix).
    model:
        The shared stateless model object.
    X, y:
        This server's private data shard (never leaves the server).
    neighbors:
        Neighbor ids :math:`B_i` from the topology.
    own_weight, neighbor_weights:
        ``W[i, i]``, and ``W[i, j]`` for each ``j`` in ``neighbors`` in that
        order (:func:`repro.weights.validation.edge_weights`); the rest of
        row ``i`` is zero by eq. (8), so it has no place here.
    alpha:
        EXTRA step size.
    initial_params:
        The common initial model ``x^0`` (every server starts from the same
        copy of the global model, Section II-B).
    straggler_strategy:
        What to mix for a neighbor whose update never arrived: the stale
        cached view (the paper's rule) or the server's own parameters (the
        bias-free reweight ablation).
    objective_scale:
        Multiplier on this server's local loss and gradient. The paper's
        aggregate objective (eq. 4) weights every server equally
        (``scale = 1``); sample-weighted federation passes
        ``n_i * N / sum_j n_j`` so the consensual optimum matches the
        pooled-data optimum even when shard sizes are unequal.
    robust:
        Optional :class:`~repro.core.robust.RobustAggregationSpec`: both
        mixing layers of the EXTRA update route through
        :func:`~repro.core.robust.robust_mix` instead of the plain weighted
        sum (bitwise identical to it at ``f=0``).
    """

    def __init__(
        self,
        node_id: NodeId,
        model: Model,
        X: np.ndarray,
        y: np.ndarray,
        neighbors: tuple[NodeId, ...],
        own_weight: float,
        neighbor_weights,
        alpha: float,
        initial_params: Params,
        straggler_strategy: StragglerStrategy = StragglerStrategy.STALE,
        objective_scale: float = 1.0,
        robust=None,
    ):
        self.node_id = int(node_id)
        self.model = model
        self.swap_data(X, y)
        self.adopt_weights(neighbors, own_weight, neighbor_weights)
        if alpha <= 0:
            raise ConfigurationError(f"alpha must be > 0, got {alpha}")
        self.alpha = float(alpha)
        if objective_scale <= 0:
            raise ConfigurationError(
                f"objective_scale must be > 0, got {objective_scale}"
            )
        self.objective_scale = float(objective_scale)
        #: Robust-aggregation spec (None = the paper's plain weighted mixing).
        self.robust = robust

        initial = model.check_params(initial_params).copy()
        #: Exact own parameters x^{k+1} (the latest iterate).
        self.params: Params = initial
        #: Exact own parameters x^k (None before the first step).
        self.previous_params: Params | None = None
        #: Cached local gradient at x^k.
        self._previous_gradient: Params | None = None
        #: Per-neighbor record of what each neighbor actually holds about this
        #: server. Advanced only on *confirmed* delivery (the paper's edge
        #: servers talk over persistent TCP connections, so the sender learns
        #: about failed transfers) — which makes a missed update self-healing:
        #: the next successful send automatically carries everything that
        #: neighbor missed.
        self.last_sent: dict[NodeId, Params] = {
            j: initial.copy() for j in self.neighbors
        }
        #: Cached neighbor views at the current iteration (x^{k+1} layer).
        self.views: dict[NodeId, Params] = {
            j: initial.copy() for j in self.neighbors
        }
        #: Cached neighbor views at the previous iteration (x^k layer).
        self.previous_views: dict[NodeId, Params] = {}
        self.straggler_strategy = straggler_strategy
        #: Whether each neighbor's current-layer view was refreshed this round
        #: (views start exact because everyone shares x^0).
        self.fresh: dict[NodeId, bool] = {j: True for j in self.neighbors}
        #: Freshness of the previous-iteration layer.
        self.previous_fresh: dict[NodeId, bool] = {}
        #: Completed local iterations.
        self.iteration = 0

    # -- local objective ------------------------------------------------------

    def adopt_weights(self, neighbors, own_weight, neighbor_weights) -> None:
        """Take ``neighbors`` and the row weights aligned with them (at
        construction, and for a topology swap, whose per-neighbor state the
        trainer's ``engine.load_state`` then writes)."""
        neighbors = tuple(int(j) for j in neighbors)
        weights = tuple(float(w) for w in neighbor_weights)
        if len(weights) != len(neighbors):
            raise ConfigurationError(
                f"server {self.node_id} got {len(weights)} neighbor weights "
                f"for {len(neighbors)} neighbors"
            )
        self.neighbors = neighbors
        self.own_weight = float(own_weight)
        self.neighbor_weights = weights

    @property
    def X(self) -> np.ndarray:
        """This server's feature matrix (replace it with :meth:`swap_data`)."""
        return self._X

    @property
    def y(self) -> np.ndarray:
        """This server's labels (replace them with :meth:`swap_data`)."""
        return self._y

    def swap_data(self, X: np.ndarray, y: np.ndarray) -> None:
        """Replace the private shard (construction, or a drift epoch boundary).

        The one place the shard changes, so the one place the prepared shard
        is dropped: the next evaluation re-validates and re-prepares.
        """
        self._X = np.asarray(X, dtype=float)
        self._y = np.asarray(y)
        self._prepared = None

    def _prepared_shard(self):
        """The model's validate-once view of the shard, built on first evaluation.

        Lazy on purpose: a vectorized trainer's servers never evaluate (the
        engine prepares all shards in one stack), so they must not each hold
        a second copy of their design matrix.
        """
        if self._prepared is None:
            self._prepared = self.model.prepare_shards([(self._X, self._y)])
        return self._prepared

    # A model that keeps the default batch evaluators fills row ``i`` of a
    # batch with ``_loss_impl`` / ``_gradient_impl`` on shard ``i``, so one
    # server calls that kernel on its one shard instead of building and
    # reading back a one-row batch (docs/PERFORMANCE.md identity 18). A model
    # that overrides a batch evaluator is evaluated through it.

    def local_loss(self, params: Params | None = None) -> float:
        """Loss :math:`f_i` on this server's shard (defaults to own params)."""
        model = self.model
        target = model.check_params(self.params if params is None else params)
        prepared = self._prepared_shard()
        if type(model).batch_losses is Model.batch_losses:
            loss = model._loss_impl(target, *prepared[0])
        else:
            loss = model.batch_losses(target[None, :], prepared)[0]
        return self.objective_scale * float(loss)

    def local_gradient(self, params: Params) -> Params:
        """Exact gradient :math:`\\nabla f_i` on this server's shard."""
        model = self.model
        target = model.check_params(params)
        prepared = self._prepared_shard()
        if type(model).batch_gradients is Model.batch_gradients:
            gradient = model._gradient_impl(target, *prepared[0])
        else:
            gradient = model.batch_gradients(target[None, :], prepared)[0]
        return self.objective_scale * gradient

    # -- communication ----------------------------------------------------------

    def mark_delivered(self, neighbor: NodeId, message: ParameterUpdate) -> None:
        """Record a confirmed delivery: ``neighbor`` now holds the sent values."""
        if neighbor not in self.last_sent:
            raise ProtocolError(
                f"server {self.node_id} has no link state for non-neighbor {neighbor}"
            )
        if message.additive:
            self.last_sent[neighbor][message.indices] += message.values
        else:
            self.last_sent[neighbor][message.indices] = message.values

    def advance_views(self) -> None:
        """Shift the view layers: current views become the previous-iteration layer.

        Called once per round *before* applying incoming updates, so a failed
        link simply leaves the current layer stale — the paper's straggler
        rule ("leverage the latest parameter updates ... to continue").
        Freshness flags shift along with the views; the new current layer
        starts pessimistic (not fresh) and is upgraded by each delivery.

        The layers share arrays until a delivery replaces a current view:
        nothing writes into a view (:meth:`receive_update` swaps in a new
        array), so the shift copies none.
        """
        self.previous_views = dict(self.views)
        self.previous_fresh = dict(self.fresh)
        self.fresh = {j: False for j in self.neighbors}

    def receive_update(self, message: ParameterUpdate) -> None:
        """Overlay a delivered neighbor update onto the current view layer."""
        sender = message.sender
        if sender not in self.views:
            raise ProtocolError(
                f"server {self.node_id} received an update from non-neighbor {sender}"
            )
        self.views[sender] = message.apply_to(self.views[sender])
        self.fresh[sender] = True

    def _neighbor_value(
        self, neighbor: NodeId, current_layer: bool, degraded=frozenset()
    ) -> Params:
        """The value mixed in for ``neighbor`` on one of the two layers.

        Under :attr:`StragglerStrategy.STALE` this is the cached view.
        Under ``REWEIGHT``, a layer whose update never arrived substitutes
        this server's own parameters on that layer, which is algebraically
        the same as moving the link's weight onto the diagonal for the round.
        A ``degraded`` neighbor (the semi-sync engine wrote it off) takes
        that substitution on both layers, whatever the strategy.
        """
        if current_layer:
            view, fresh, own = self.views[neighbor], self.fresh[neighbor], self.params
        else:
            view = self.previous_views[neighbor]
            fresh = self.previous_fresh.get(neighbor, True)
            own = self.previous_params
        if neighbor in degraded or (
            self.straggler_strategy is StragglerStrategy.REWEIGHT and not fresh
        ):
            return own
        return view

    # -- the EXTRA update ---------------------------------------------------------

    def _mix_layer(self, current_layer: bool, degraded=frozenset()) -> Params:
        """One robust mixing layer (W on the current, W-tilde on the previous).

        Shared by every engine (the vectorized engine calls it per node),
        with operands in ascending-neighbor order — the canonical order
        that keeps robust runs digest-equal across engines.
        """
        from repro.core.robust import robust_mix

        w_own, w_neighbors = self.own_weight, self.neighbor_weights
        values = [
            self._neighbor_value(j, current_layer, degraded) for j in self.neighbors
        ]
        if current_layer:
            own_value, own_weight = self.params, w_own
            weights = list(w_neighbors)
        else:
            own_value, own_weight = self.previous_params, 0.5 * (w_own + 1.0)
            weights = [0.5 * w for w in w_neighbors]
        return robust_mix(
            self.robust, own_value, own_weight, self.neighbors, values, weights
        )

    def step(self, degraded=frozenset()) -> Params:
        """Run one local EXTRA update against the cached views; returns the new params.

        ``degraded`` names neighbors whose slots mix this server's own
        parameters for the round (see :meth:`_neighbor_value`).
        """
        w_own = self.own_weight
        weighted = tuple(zip(self.neighbors, self.neighbor_weights))
        if self.previous_params is None:
            # First iteration: x^1 = sum_j w_ij x^0_(j) - alpha grad_i(x^0).
            if self.robust is not None:
                mixed = self._mix_layer(True, degraded)
            else:
                mixed = w_own * self.params
                for j, w_j in weighted:
                    # In place: the same sum in the same order, one
                    # temporary fewer (docs/PERFORMANCE.md identity 19).
                    mixed += w_j * self._neighbor_value(j, True, degraded)
            gradient = self.local_gradient(self.params)
            new_params = mixed - self.alpha * gradient
        else:
            # (A neighborless server — a fully isolated EXTRA run — has a
            # legitimately empty previous layer; the guard is for servers
            # whose views were never advanced.)
            if self.neighbors and not self.previous_views:
                raise ProtocolError(
                    "advance_views() must run before the second step so the "
                    "previous-iteration view layer exists"
                )
            # w_tilde row: (w_ij)/2 off-diagonal, (w_ii + 1)/2 on the diagonal.
            if self.robust is not None:
                mixed_current = self._mix_layer(True, degraded)
                mixed_previous = self._mix_layer(False, degraded)
            else:
                mixed_current = w_own * self.params
                mixed_previous = 0.5 * (w_own + 1.0) * self.previous_params
                for j, w_j in weighted:
                    mixed_current += w_j * self._neighbor_value(j, True, degraded)
                    mixed_previous += 0.5 * w_j * self._neighbor_value(
                        j, False, degraded
                    )
            gradient = self.local_gradient(self.params)
            new_params = (
                self.params
                + mixed_current
                - mixed_previous
                - self.alpha * (gradient - self._previous_gradient)
            )
        self.previous_params = self.params
        self._previous_gradient = gradient
        self.params = new_params
        self.iteration += 1
        return new_params

    def restart_recursion(self) -> None:
        """Forget the EXTRA history and treat the current parameters as ``x^0``.

        The per-server kernel of :meth:`~repro.core.engine.Engine.restart`.
        Algorithm 1 "restart[s] the iteration from the solution derived by"
        the previous stage, so errors kept under its coarser threshold cannot
        bias the new stage's fixed point (docs/ALGORITHMS.md). Neighbor views
        and link state survive: they are network knowledge, not history.
        """
        self.previous_params = None
        self._previous_gradient = None
        self.previous_views = {}

    def __repr__(self) -> str:
        return (
            f"EdgeServer(id={self.node_id}, samples={len(self.y)}, "
            f"neighbors={self.neighbors}, iteration={self.iteration})"
        )
