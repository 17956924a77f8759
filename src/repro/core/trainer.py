"""The SNAP training loop.

One trainer owns N edge servers over a topology and advances them in
synchronized rounds (the paper assumes a shared global clock, Section IV-D).
Every round:

1. each server runs its local EXTRA update (8) against its cached neighbor
   views;
2. each server selects the parameters whose change exceeds its APE-derived
   threshold (Algorithm 1) and broadcasts one frame-encoded update to every
   neighbor;
3. the updates are delivered — except across links the fault plan has down
   or frames it damages, where the receiver silently keeps its stale view
   (the straggler rule);
4. losses, consensus error and traffic are recorded, and the convergence
   detector decides whether to stop.

The compressor presets ``changed_only`` and ``dense`` turn the same loop
into the paper's SNAP-0 and SNO comparison schemes.

Steps 1-3 run in the configured engine. The per-edge *sender* of step 2 is
written once, here: :meth:`SNAPTrainer.send_round`, to which the reference
engine, the semi-synchronous engine and the TCP testbed each hand their
wire as a ``transmit`` callable.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.compression import EdgeState, build_compressor, payload_to_update
from repro.compression.spec import SCHEME_PRESETS
from repro.consensus.convergence import ConvergenceDetector, consensus_error
from repro.consensus.step_size import safe_step_size
from repro.core.config import APE_EPSILON_FRACTION, APE_GROWTH, STEP_SAFETY
from repro.core.config import ShardWeighting, SNAPConfig
from repro.core.engine import build_engine, carry_rows, reindex_state
from repro.core.server import EdgeServer
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError, DataError
from repro.faults.plan import FaultPlan
from repro.models.base import Model
from repro.models.metrics import accuracy_score
from repro.network.cost import CommunicationCostTracker
from repro.core.ape import APEScheduleBank
from repro.results import RoundRecord, RoundTrace, TrainingResult
from repro.topology.graph import Topology
from repro.types import Params, WeightMatrix
from repro.weights.adaptive import TopologyController
from repro.weights.construction import metropolis_weights, tiered_metropolis_weights
from repro.weights.optimizer import optimize_weight_matrix
from repro.weights.validation import check_weight_matrix, edge_weights, off_support

#: Consecutive partitioned rounds before the trainer emits a warning.
PARTITION_WARN_ROUNDS = 10

#: A weight above this magnitude off a server's links is refused at
#: construction and at every topology swap.
STRAY_ATOL = 1e-12


def _delivered_graph_connected(
    n_nodes: int,
    n_links: int,
    delivered,
    down: frozenset = frozenset(),
) -> bool:
    """Whether the round's delivered updates span all *up* servers.

    Servers in ``down`` are excluded: a crashed server is the straggler
    rule's business (it resumes from cached state), not a partition. What
    this flags is live servers split into islands that exchanged nothing.

    ``delivered`` is the round's columnar
    :class:`~repro.core.engine.DeliveredEdges` (every engine returns one).
    Components are counted with ``scipy.sparse.csgraph`` over the
    delivered-edge graph; down servers never appear in ``delivered``, so
    they are exactly the singleton components subtracted off.

    ``n_links`` is the topology's directed-link count: with nobody down and
    every link delivered, the delivered graph *is* the topology, which is
    connected (checked at construction; pruning keeps it so), and no graph
    is built.
    """
    active = n_nodes - len(down)
    if active <= 1 or (not down and len(delivered) == n_links):
        return True
    sources, destinations = delivered.sources, delivered.destinations
    if sources.size == 0:
        return False
    graph = coo_matrix(
        (np.ones(sources.size, dtype=np.int8), (sources, destinations)),
        shape=(n_nodes, n_nodes),
    )
    n_components, _ = connected_components(graph, directed=False)
    return n_components - len(down) == 1


def _refuse_stray_weights(rows: np.ndarray, columns: np.ndarray, what: str) -> None:
    """Raise for the first server holding weight off its links (``off_support``)."""
    if rows.size:
        raise ConfigurationError(
            f"{what} of server {rows[0]} has mass outside its neighbor set: "
            f"{columns[rows == rows[0]].tolist()}"
        )


class SNAPTrainer:
    """Decentralized trainer implementing SNAP and its SNAP-0/SNO variants.

    Parameters
    ----------
    model:
        Shared stateless model (one logical "uniform model", N replicas).
    shards:
        One private :class:`~repro.data.Dataset` per edge server.
    topology:
        The neighbor graph; must be connected for consensus to be reachable.
    config:
        All algorithm knobs; defaults reproduce the paper's Section V setup.
    fault_plan:
        The run's only fault input, a :class:`~repro.faults.FaultPlan`
        (``None`` means ``FaultPlan()``, a fault-free run). Its link models
        drive the Fig. 9 outages; its node models the Section IV-D "server
        shut down" — a downed server skips the round entirely (no local
        step, no transmissions, no receptions) and resumes from its last
        state; its corruption model damages frames, which consume bytes but
        are never applied — the receiver falls back to its cached view,
        exactly as for a failed link.
    weight_matrix:
        Explicit mixing matrix override; when ``None`` the matrix comes from
        the Section IV-B optimization (or eq. 24 if
        ``config.optimize_weights`` is false).
    initial_params:
        Common initial model ``x^0``; defaults to ``model.init_params(seed)``.
    """

    def __init__(
        self,
        model: Model,
        shards: list[Dataset],
        topology: Topology,
        config: SNAPConfig | None = None,
        fault_plan: FaultPlan | None = None,
        weight_matrix: WeightMatrix | None = None,
        initial_params: Params | None = None,
    ):
        self.model = model
        self.topology = topology
        self.config = config if config is not None else SNAPConfig()
        if len(shards) != topology.n_nodes:
            raise ConfigurationError(
                f"{len(shards)} shards for {topology.n_nodes} servers"
            )
        if not topology.is_connected():
            raise ConfigurationError(
                "topology is disconnected; consensus cannot be reached"
            )
        self.shards = shards

        #: The full optimization result backing ``weight_matrix`` (None for
        #: explicit/Metropolis matrices). The adaptive topology controller
        #: warm-starts its online re-solves from it, and its cached
        #: ``lazy_report`` feeds the step-size cap below.
        self._weight_result = None
        #: How a matrix that is not an optimization result was made.
        self._weight_problem = "explicit"
        if weight_matrix is None:
            if self.config.optimize_weights:
                self._weight_result = optimize_weight_matrix(
                    topology, iterations=self.config.weight_iterations
                )
                weight_matrix = self._weight_result.matrix
            elif self.config.tier_damping is not None:
                weight_matrix = tiered_metropolis_weights(
                    topology, self.config.tier_damping
                )
                self._weight_problem = "tiered-metropolis"
            else:
                weight_matrix = metropolis_weights(
                    topology, sparse=self.config.sparse_weights
                )
                self._weight_problem = (
                    "metropolis-sparse" if self.config.sparse_weights else "metropolis"
                )
        self.weight_matrix = check_weight_matrix(weight_matrix, topology)

        if self.config.shard_weighting is ShardWeighting.SAMPLES:
            total_samples = sum(shard.n_samples for shard in shards)
            self._objective_scales = [
                shard.n_samples * len(shards) / total_samples for shard in shards
            ]
        else:
            self._objective_scales = [1.0] * len(shards)
        #: Base (epoch-0) shards: drift schedules derive every epoch's shard
        #: from these, so drift is a pure function of (seed, node, epoch).
        self._base_shards = list(shards)
        #: Drift epoch currently applied to the servers.
        self._drift_epoch = 0
        # The step size must stay safe on every shard the drift schedule will
        # ever expose within the configured horizon, not just epoch 0. One
        # epoch's shards are alive at a time; the maximum of the per-epoch
        # maxima is bitwise the maximum over all of them.
        schedule = self.config.drift
        horizon = 0 if schedule is None else schedule.epoch(self.config.max_rounds)
        self.lipschitz = max(
            self._epoch_lipschitz_bound(epoch) for epoch in range(horizon + 1)
        )
        self.alpha = (
            self.config.alpha
            if self.config.alpha is not None
            else self._safe_alpha(self.weight_matrix, self._weight_result)
        )

        if initial_params is None:
            initial_params = model.init_params(self.config.seed)
        self.initial_params = model.check_params(initial_params)

        #: The EdgeServer objects, built in :meth:`_build_servers`. On the
        #: per-edge engines they are the state and are built here; on the
        #: vectorized engine the engine's arrays are, and the list is built
        #: on the first read of :attr:`servers`.
        self._servers: list[EdgeServer] | None = None
        self._check_server_inputs()
        if self.config.engine != "vectorized":
            self._servers = self._build_servers()

        self.tracker = CommunicationCostTracker(
            retain_records=self.config.retain_flow_records
        )
        #: The one owner of every fault decision: link outages, frame
        #: corruption, server outages, clock skew, byzantine senders.
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        #: The adversarial-transmission plan (None for an all-honest fleet).
        #: Attacker ids are resolved against the *initial* topology and
        #: cached, so the compromised set survives adaptive swaps.
        self.byzantine_plan = self.fault_plan.byzantine
        self.byzantine_nodes: frozenset[int] = (
            self.byzantine_plan.attackers(topology)
            if self.byzantine_plan is not None
            else frozenset()
        )
        #: Per directed link, in ``topology.directed_edges`` order: rounds
        #: since the destination last received a fresh update from the
        #: source (the degradation signal behind Fig. 9 — how stale the
        #: cached views are). ``link_staleness`` is its dict view.
        self._staleness = np.zeros(topology.directed_edges[0].size, dtype=np.int64)
        self._partitioned_streak = 0
        self._partition_warned = False
        #: Global round counter across run() calls (and across checkpoint
        #: resumes): failure models sample by round index, so a resumed run
        #: must keep numbering where the checkpointed one stopped.
        self.rounds_completed = 0
        #: The run's current compression scheme: ``config.compressor`` until
        #: the topology controller steps its byte knob.
        self.compressor_spec = self.config.compressor
        self._schedules = self._build_schedules()
        #: One compressor instance per server (the APE preset binds each
        #: node's schedule; every other scheme is stateless per node and
        #: keeps its state on the edge states instead).
        self.compressors = [
            build_compressor(
                self.compressor_spec,
                schedule=None if self._schedules is None else self._schedules[i],
            )
            for i in range(topology.n_nodes)
        ]
        #: Lightweight per-round observers (no server sync): each is called
        #: with the fresh RoundRecord right after it is appended. This is the
        #: streaming-digest hook — unlike ``run(on_round=...)`` it does not
        #: force an engine writeback every round.
        self._round_observers: list = []
        #: Lazily created per-directed-edge compressor state, shared with
        #: whichever engine (or testbed runtime) executes the round loop so
        #: seeded streams survive engine swaps.
        self._edge_states: dict[tuple[int, int], EdgeState] = {}
        #: The execution engine behind run(): the per-object reference
        #: implementation or the bit-for-bit equivalent vectorized fast path
        #: (see repro.core.engine), per ``config.engine``.
        self.engine = build_engine(self)
        #: Live paper-contract checks (``config.invariants="strict"``); the
        #: run loop invokes it every round, and it reads ``engine.state()``.
        #: Lazy import: repro.testing imports network modules and would
        #: cycle at module level.
        if self.config.invariants == "strict":
            from repro.testing.invariants import InvariantMonitor

            self.monitor: "InvariantMonitor | None" = InvariantMonitor(self)
        else:
            self.monitor = None
        #: The adaptive topology runtime (``config.adaptive_topology``): the
        #: run loop consults it at round boundaries and applies the swaps it
        #: emits atomically across servers, engine, and monitor.
        if self.config.adaptive_topology:
            if self._weight_result is None:
                raise ConfigurationError(
                    "adaptive_topology requires the Section IV-B optimized "
                    "weight matrix; an explicit weight_matrix override "
                    "cannot be re-optimized online"
                )
            self._topology_controller: TopologyController | None = (
                TopologyController(self.topology, self._weight_result, self.config)
            )
        else:
            self._topology_controller = None
        #: Whether a topology swap (adaptive or membership) was applied.
        self._swapped = False

    @property
    def servers(self) -> list[EdgeServer]:
        """One :class:`EdgeServer` per node, in node order.

        On the vectorized engine the list is built by the first read and
        filled from the engine's arrays (``engine.sync_to_servers()``); from
        then on the engine ingests it at every ``run()`` and writes back to
        it as it does on every engine. A run nobody inspects builds none.
        """
        if self._servers is None:
            self._servers = self._build_servers()
            self.engine.sync_to_servers()
        return self._servers

    def _build_servers(self) -> list[EdgeServer]:
        """The fleet at ``x^0`` over the current shards, topology, W and step size."""
        return [
            EdgeServer(
                node_id=node,
                model=self.model,
                X=self.shards[node].X,
                y=self.shards[node].y,
                neighbors=self.topology.neighbors(node),
                own_weight=own_weight,
                neighbor_weights=neighbor_weights,
                alpha=self.alpha,
                initial_params=self.initial_params,
                straggler_strategy=self.config.straggler_strategy,
                objective_scale=self._objective_scales[node],
                robust=self.config.robust_aggregation,
            )
            for node, (own_weight, neighbor_weights) in enumerate(
                self._server_weights()
            )
        ]

    @property
    def _weight_info(self) -> dict:
        """How W was made: the solve's problem and rate score, or the construction."""
        result = self._weight_result
        if result is None:
            return {"weight_problem": self._weight_problem}
        return {
            "weight_problem": result.problem,
            "rate_score": result.report.rate_score,
        }

    def _safe_alpha(self, matrix: WeightMatrix, result) -> float:
        """The safe step size of ``matrix`` (``result``: its optimization, or None).

        ``λ_min(W̃)`` was already computed when the optimizer analyzed the
        lazy candidate of the winning matrix; reusing it is bitwise-identical
        to recomputing (same matrix expression, same ``eigvalsh``) and saves
        a dense spectrum.
        """
        lazy = result.lazy_report if result is not None else None
        return safe_step_size(
            matrix,
            self.lipschitz,
            STEP_SAFETY,
            lam_min_tilde=lazy.smallest if lazy is not None else None,
        )

    def _server_weights(self) -> list[tuple[float, list[float]]]:
        """Per node: its own weight and its neighbors' weights, ascending."""
        own, links = edge_weights(self.weight_matrix, self.topology)
        src = self.topology.directed_edges[0]
        bounds = np.searchsorted(src, np.arange(own.size + 1)).tolist()
        links = links.tolist()
        return [(w, links[lo:hi]) for w, lo, hi in zip(own.tolist(), bounds, bounds[1:])]

    def _check_server_inputs(self) -> None:
        """The step size, then node by node its objective scale and its W support.

        Once over columns, for every engine, before any server is built
        (``EdgeServer`` takes only the weights of its own links, so an entry
        off the support could never reach one): the first failing node, in
        node order, raises.
        """
        if self.alpha <= 0:
            raise ConfigurationError(f"alpha must be > 0, got {self.alpha}")
        n = self.topology.n_nodes
        scales = self._objective_scales
        first_scale = next((i for i, scale in enumerate(scales) if scale <= 0), n)
        rows, columns = off_support(self.weight_matrix, self.topology, STRAY_ATOL)
        if first_scale < n and first_scale <= (rows[0] if rows.size else n):
            raise ConfigurationError(
                f"objective_scale must be > 0, got {scales[first_scale]}"
            )
        _refuse_stray_weights(rows, columns, "weight row")

    def _build_schedules(self) -> APEScheduleBank | None:
        """One APE schedule per server (a bank row each), in *relative* units.

        The paper initializes the APE threshold "to be 10% of the mean value
        of all the parameters". The parameters' scale changes over training
        (an SVM initialized near zero grows to O(1) weights), so the
        schedule here works in units of the server's current mean absolute
        parameter: thresholds and suppressed changes are divided by that
        scale before entering Algorithm 1, and multiplied back when applied.
        This keeps the 10%-of-the-parameters semantics true throughout the
        run instead of freezing it at the (arbitrary) initialization scale.
        """
        if self.compressor_spec.kind != "ape":
            return None
        initial_threshold = self.config.ape_initial_fraction
        return APEScheduleBank(
            self.topology.n_nodes,
            initial_threshold=initial_threshold,
            growth=APE_GROWTH,
            stage_iterations=self.config.ape_stage_iterations,
            decay=self.config.ape_decay,
            epsilon=APE_EPSILON_FRACTION * initial_threshold,
        )

    @property
    def link_staleness(self) -> dict[tuple[int, int], int]:
        """Per directed link: rounds since the last fresh delivery (dict view).

        Materialized on access from the ages array; mutate nothing here —
        the array is the storage.
        """
        src, dst = self.topology.directed_edges
        return dict(
            zip(zip(src.tolist(), dst.tolist()), self._staleness.tolist())
        )

    def add_round_observer(self, observer) -> None:
        """Subscribe a lightweight per-round observer.

        ``observer(record)`` is called with each fresh
        :class:`~repro.results.RoundRecord` immediately after it is recorded,
        *without* syncing engine state back to the server objects (unlike the
        ``run(on_round=...)`` callback). Streaming digests subscribe here.
        """
        self._round_observers.append(observer)

    # -- observation helpers ---------------------------------------------------

    def stacked_params(self) -> np.ndarray:
        """The ``(N, P)`` matrix of current per-server parameters."""
        return self.engine.stacked_params()

    def mean_params(self) -> Params:
        """The network-average model (what gets evaluated on the test set)."""
        return self.stacked_params().mean(axis=0)

    # -- the training loop ---------------------------------------------------------

    def run(
        self,
        max_rounds: int | None = None,
        detector: ConvergenceDetector | None = None,
        test_set: Dataset | None = None,
        eval_every: int = 0,
        stop_on_convergence: bool = True,
        on_round=None,
    ) -> TrainingResult:
        """Train until convergence or the round cap; returns the full trace.

        Parameters
        ----------
        max_rounds:
            Iteration cap (defaults to ``config.max_rounds``).
        detector:
            Convergence detector; a default-configured one when ``None``.
        test_set:
            Optional held-out data; enables accuracy reporting.
        eval_every:
            Evaluate test accuracy every this many rounds (0 = only at the
            end).
        stop_on_convergence:
            Stop as soon as the detector fires (the paper measures traffic
            "before algorithm converges"); set ``False`` to always run the
            full budget, e.g. for trace-shape studies.
        on_round:
            Optional observer called after each round with the fresh
            :class:`~repro.results.RoundRecord` (live progress reporting,
            custom early stopping via exceptions, tracing, ...).
        """
        cap = max_rounds if max_rounds is not None else self.config.max_rounds
        if cap <= 0:
            raise ConfigurationError(f"max_rounds must be > 0, got {cap}")
        if detector is None:
            detector = ConvergenceDetector()
        records = RoundTrace()
        horizon = self.rounds_completed + cap
        controller = self._topology_controller

        engine = self.engine
        engine.begin_run()
        if self.monitor is not None:
            self.monitor.on_run_start()
        # The engine may hold state outside the server objects (the
        # vectorized path does); once they are built, the finally guarantees
        # they are consistent even when the loop exits via an exception
        # (an observer's, or an invariant violation).
        try:
            for _ in range(cap):
                round_index = self.rounds_completed + 1
                down = self.fault_plan.failed_nodes(self.topology, round_index)
                # An engine with a fleet of its own (the TCP testbed) may widen
                # the down set, or end the run (None) before the round executes.
                down = engine.round_down(round_index, down)
                if down is None:
                    break
                if self.config.drift is not None:
                    self._maybe_apply_drift(round_index)
                engine.step_round(round_index, down)

                params_sent, delivered = engine.communicate(round_index, down)
                self.rounds_completed = round_index
                stale_links = self._advance_staleness(delivered)
                connected = _delivered_graph_connected(
                    self.topology.n_nodes,
                    2 * self.topology.n_edges,
                    delivered,
                    down,
                )
                self._observe_partition(connected, round_index)

                # One parameter stack per round feeds the consensus error,
                # the optional accuracy evaluation, and (after the loop) the
                # final mean parameters.
                stack = engine.stacked_params()
                mean_loss = engine.mean_local_loss()
                consensus = consensus_error(stack)
                accuracy = None
                if (
                    test_set is not None
                    and eval_every > 0
                    and round_index % eval_every == 0
                ):
                    accuracy = self._evaluate(test_set, stack.mean(axis=0))
                record = RoundRecord(
                    round_index=round_index,
                    mean_loss=mean_loss,
                    consensus_error=consensus,
                    bytes_sent=self.tracker.round_bytes(round_index),
                    cost=self.tracker.round_cost(round_index),
                    params_sent=params_sent,
                    accuracy=accuracy,
                    stale_links=stale_links,
                    max_staleness=(
                        int(self._staleness.max()) if self._staleness.size else 0
                    ),
                    connected=connected,
                )
                records.append(record)
                for observer in self._round_observers:
                    observer(record)
                if self.monitor is not None:
                    self.monitor.on_round(record, down)
                if on_round is not None:
                    engine.sync_to_servers()
                    on_round(record)
                converged = detector.observe(mean_loss, consensus)
                if converged and stop_on_convergence:
                    break
                if controller is not None:
                    schedules = self._schedules
                    swap = controller.after_round(
                        round_index,
                        down,
                        0 if schedules is None else int(schedules.stages.max()),
                        bytes_spent=self.tracker.total_bytes,
                        total_rounds=horizon,
                    )
                    if swap is not None:
                        self.apply_swap(swap)
        finally:
            engine.sync_to_servers()

        if not records:  # the engine ended the run before its first round
            stack = engine.stacked_params()
        final_params = stack.mean(axis=0)
        final_accuracy = (
            self._evaluate(test_set, final_params) if test_set is not None else None
        )
        info = {
            "alpha": self.alpha,
            "lipschitz_bound": self.lipschitz,
            "compressor": self.compressor_spec.label,
            **self._weight_info,
        }
        if controller is not None:
            # Controller report lives in ``info`` only; the RunDigest does
            # not hash it, so engine equivalence is decided by the actual
            # trajectory, not by matching report dictionaries.
            info["adaptive_topology"] = controller.summary()
        timing = engine.timing_summary()
        if timing is not None:
            # Virtual-clock report of the semi-synchronous engine. Lives in
            # ``info`` only — the RunDigest does not hash it, so the τ=0
            # equivalence with the synchronous engines is unaffected.
            info["semi_sync"] = timing
        return TrainingResult(
            scheme=self._scheme_name(),
            rounds=records,
            converged_at=detector.converged_at,
            final_params=final_params,
            total_bytes=self.tracker.total_bytes,
            total_cost=self.tracker.total_cost,
            final_accuracy=final_accuracy,
            info=info,
        )

    # -- adaptive topology -------------------------------------------------------

    def apply_swap(self, swap) -> None:
        """Switch the run onto a swap's (topology, W, spec) between rounds:
        the adaptive controller's, or the testbed's membership swap.

        1. The new W is validated — by the monitor's ``topology-swap`` check
           (step 6) when one is attached, else here — and refused if any
           weight leaves the new links.
        2. The run state is read once, and the old topology's ``edge_rows``
           maps each new directed edge to its old row (−1 if added).
        3. Topology, W and step size switch; the step size is re-capped,
           never raised mid-run (that would invalidate completed rounds).
           Built servers take their new neighbors, weights and step size.
        4. The staleness ages move through the same rows (added: 0).
        5. A knob swap rebuilds every compressor and clears the per-edge
           compressor state; a topology-only swap drops the pruned edges'.
        6. The engine reloads the state moved through the rows
           (:meth:`_reload`); the monitor re-validates.
        """
        if self.monitor is None:
            check_weight_matrix(swap.matrix, swap.topology)
        _refuse_stray_weights(
            *off_support(swap.matrix, swap.topology, STRAY_ATOL), "swapped weight row"
        )
        state = self.engine.state()
        rows = self.topology.edge_rows(*swap.topology.directed_edges)

        self.topology = swap.topology
        self.weight_matrix = swap.matrix
        self._weight_result = swap.result
        if self.config.alpha is None:
            self.alpha = min(self.alpha, self._safe_alpha(swap.matrix, swap.result))
        for server, (own_weight, neighbor_weights) in zip(
            self._servers or (), self._server_weights()
        ):
            server.adopt_weights(
                self.topology.neighbors(server.node_id), own_weight, neighbor_weights
            )
            server.alpha = self.alpha

        self._staleness = carry_rows(self._staleness, rows, 0)

        if swap.compressor_spec is not None:
            # The budget controller never steps a preset's knob, so the
            # schedule-bound APE compressors are never rebuilt here.
            self.compressor_spec = swap.compressor_spec
            self.compressors = [
                build_compressor(self.compressor_spec, schedule=None)
                for _ in range(self.topology.n_nodes)
            ]
            self._edge_states.clear()
        elif self._edge_states:
            links = np.asarray(list(self._edge_states), dtype=np.int64)
            pruned = self.topology.edge_rows(links[:, 0], links[:, 1]) < 0
            for source, destination in links[pruned].tolist():
                del self._edge_states[(source, destination)]

        self._reload(state, rows)
        self._swapped = True
        if self.monitor is not None:
            self.monitor.on_topology_swap(swap)

    def _reload(self, state, rows: np.ndarray) -> None:
        """Rebuild the engine, then load ``state`` re-indexed by ``rows``
        (:func:`~repro.core.engine.reindex_state`, which restarts EXTRA)."""
        self.engine.rebuild()
        self.engine.load_state(
            reindex_state(state, rows, *self.topology.directed_edges)
        )

    def _scheme_name(self) -> str:
        spec = self.compressor_spec
        if spec.is_preset:
            return {kind: name for name, kind in SCHEME_PRESETS.items()}[spec.kind]
        return f"snap+{spec.label}"

    def _edge_state(self, source: int, destination: int) -> EdgeState:
        """The persistent compressor state of one directed edge (lazy)."""
        key = (source, destination)
        state = self._edge_states.get(key)
        if state is None:
            state = self.compressors[source].make_edge_state(
                source, destination, self.config.seed
            )
            self._edge_states[key] = state
        return state

    def send_round(
        self,
        server: EdgeServer,
        round_index: int,
        down: frozenset,
        transmit,
        offline=None,
    ) -> None:
        """The sending half of ``server``'s round — the one per-edge sender.

        For every live neighbor: select ``server``'s parameters against what
        that neighbor last received (Algorithm 1), frame them (Fig. 3), hand
        the frame to the runtime's wire — ``transmit(source, neighbor,
        message, stage) -> delivered`` — and advance the link state only on
        delivery (Section IV-D: otherwise the receiver keeps its cached view
        and the link stays pending). A neighbor in ``down`` gets no frame —
        the connection fails before any bytes enter the network — only the
        optional ``offline(neighbor)`` callback.
        """
        source = server.node_id
        compressor = self.compressors[source]
        # A byzantine server compresses and ships its *poisoned* vector;
        # everything downstream (selection reference, byte accounting,
        # last_sent, receiver views) operates on the transmitted values, so
        # every ledger identity still holds bitwise.
        tx_params = self.transmit_params(server.params, source, round_index)
        n_params, stage = self.model.n_params, compressor.name
        ctx = compressor.begin_round(tx_params, round_index)
        for neighbor in server.neighbors:
            if neighbor in down:
                if offline is not None:
                    offline(neighbor)
                continue
            state = self._edge_state(source, neighbor)
            state.reference = server.last_sent[neighbor]
            payload = compressor.compress(tx_params, state, ctx)
            message = payload_to_update(payload, source, round_index, n_params)
            if transmit(source, neighbor, message, stage):
                server.mark_delivered(neighbor, message)
        if compressor.end_round(ctx):
            # Algorithm 1 stage boundary: restart EXTRA from the current
            # solution under the tightened threshold.
            server.restart_recursion()

    def transmit_params(
        self, params: Params, node: int, round_index: int
    ) -> Params:
        """The vector ``node`` puts on the wire this round.

        Honest nodes transmit ``params`` unchanged (the same object — no
        copy); compromised nodes transmit the byzantine plan's poisoned
        transformation. Every runtime's send path routes through this, so
        one plan poisons the simulator engines and the TCP testbed
        identically.
        """
        if self.byzantine_plan is None:
            return params
        return self.byzantine_plan.transmit(
            params, node, round_index, self.topology
        )

    # -- drifting data -----------------------------------------------------------

    def _epoch_lipschitz_bound(self, epoch: int) -> float:
        """The largest per-shard bound over the shards drift epoch ``epoch`` exposes.

        A shard the model refuses raises :class:`DataError` naming its node
        (and the epoch, past epoch 0).
        """
        schedule = self.config.drift
        Xs = [
            (schedule.shard(node, shard, epoch) if epoch else shard).X
            for node, shard in enumerate(self._base_shards)
        ]
        try:
            return self.model.lipschitz_bound(Xs, self._objective_scales)
        except DataError as error:
            if error.shard is None:
                raise
            where = f" at drift epoch {epoch}" if epoch else ""
            reason = str(error).removeprefix(f"shard {error.shard} ")
            raise DataError(
                f"node {error.shard}{where}: {reason}", shard=error.shard
            ) from None

    def _maybe_apply_drift(self, round_index: int) -> None:
        """Swap every server onto the schedule's shard for this round's epoch.

        An epoch boundary is an EXTRA restart: the gradient-difference
        recursion straddling a data change is incoherent, so each server's
        current parameters become the new epoch's ``x^0`` (exactly the
        Algorithm 1 stage-boundary semantics): a swap's :meth:`_reload`
        with every edge in place. Neighbor views and link state survive —
        the network's knowledge didn't change, the data did.
        """
        schedule = self.config.drift
        epoch = schedule.epoch(round_index)
        if epoch == self._drift_epoch:
            return
        state = self.engine.state()
        self.shards = [
            schedule.shard(node, base, epoch)
            for node, base in enumerate(self._base_shards)
        ]
        # The vectorized engine re-prepares in rebuild(): no list is built.
        for server, shard in zip(self._servers or (), self.shards):
            server.swap_data(shard.X, shard.y)
        self._drift_epoch = epoch
        self._reload(state, np.arange(state.src.size))

    def _advance_staleness(self, delivered) -> int:
        """Age every directed link; reset the delivered ones. Returns #stale.

        ``delivered`` only ever contains directed topology links, so the
        stale count is the link total minus the delivered count.
        """
        ages = self._staleness
        ages += 1
        ages[self.topology.edge_rows(delivered.sources, delivered.destinations)] = 0
        return ages.size - len(delivered)

    def _observe_partition(self, connected: bool, round_index: int) -> None:
        """Track consecutive partitioned rounds; warn once per partition."""
        if connected:
            self._partitioned_streak = 0
            self._partition_warned = False
            return
        self._partitioned_streak += 1
        if (
            not self._partition_warned
            and self._partitioned_streak == PARTITION_WARN_ROUNDS
        ):
            self._partition_warned = True
            warnings.warn(
                f"network has been partitioned for {PARTITION_WARN_ROUNDS} "
                f"consecutive rounds (through round {round_index}); servers "
                "are training on disjoint islands",
                RuntimeWarning,
                stacklevel=2,
            )

    def _evaluate(self, test_set: Dataset, mean_params: Params | None = None) -> float:
        if mean_params is None:
            mean_params = self.mean_params()
        predictions = self.model.predict(mean_params, test_set.X)
        return accuracy_score(test_set.y, predictions)
