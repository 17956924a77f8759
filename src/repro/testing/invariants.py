"""Runtime invariant monitors: the paper's contracts, asserted live.

SNAP's headline guarantees are machine-checkable, and this module checks
them *during* a run instead of post-hoc:

``weight-stochasticity``
    The mixing matrix ``W`` of problems (22)/(23) must be symmetric,
    doubly stochastic, and supported on the topology (and then
    ``W̃ = (I + W)/2`` inherits all three) — the structural precondition
    of the EXTRA recursion (8).
``weight-spectrum``
    EXTRA's convergence class needs ``λ_max(W) = 1`` simple (a spectral
    gap below one) and ``W̃ ≻ 0``, i.e. ``λ_min(W) > -1``.
``ape-budget``
    Algorithm 1: each server's accumulated parameter error estimate must
    stay within the stage budget ``T_k``, the budget must decay
    monotonically from its initial value, and the per-iteration send
    threshold must equal ``T_k / (I_k (1 + αG)^{I_k})`` exactly.
``byte-ledger``
    Every recorded flow's byte count must be one of the analytic Fig. 3
    frame sizes — ``4 + 8N - 4M`` (UNCHANGED_INDEX), ``12 (N - M)``
    (INDEX_VALUE), or the QUANTIZED size when the scheme quantizes — at
    one hop, and the per-round ledger aggregates must conserve (round
    record == tracker == sum of the round's flows).
``error-feedback``
    The protocol backbone: ``sender.last_sent[j] == receiver.views[i]``
    bitwise on every directed edge (both advance only on confirmed
    delivery).
``semi-sync``
    Only when the semi-synchronous engine runs: per-edge progress
    staleness observed at any step start must stay within the configured
    bound τ, applied view versions must be strictly monotone per directed
    edge, and the deferred-delivery ledger must conserve — every frame
    (and its bytes) put on the wire is accounted as applied, corrupted,
    or in flight, and the in-flight count equals the frames actually
    sitting in the engine's reorder buffers at the round boundary.
``consensus-envelope``
    The EXTRA consensus residual may oscillate under suppression and
    faults but must stay finite and inside a constant multiple of its
    opening envelope — divergence (NaN/∞/explosion) is flagged at the
    round it happens.
``byzantine-bound``
    Only when a byzantine plan runs under a robust aggregator: no honest
    server may face more attacker neighbors than the configured
    tolerance ``f`` — beyond it the trimmed-mean/median/Krum guarantee
    is void and the run's robustness claim is a lie.
``drift-schedule``
    Only under a drift schedule: the epoch must be non-decreasing in the
    round index, and the shards the trainer holds must belong to exactly
    the epoch the schedule assigns to the completed round.
``hierarchy-ledger``
    Only on tiered topologies: every flow must connect adjacent tiers
    (edge <-> aggregator <-> cloud, never skipping a level), and the
    per-tier-pair byte decomposition must sum exactly to the round
    record's byte total — conservation across the hierarchy.

Enable with ``SNAPConfig(invariants="strict")``; the trainer then runs
every check each round on every engine and on the TCP testbed. The
per-node and per-edge checks read one columnar snapshot,
``trainer.engine.state()`` (an :class:`~repro.core.engine.EngineState`),
and the APE bank's columns — never the server objects, so no engine writes
its state back for the monitor. Violations raise
:class:`~repro.exceptions.InvariantViolation` naming the invariant and the
round. Custom checks plug in via :meth:`InvariantMonitor.add_check`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix, issparse

from repro.exceptions import InvariantViolation
from repro.network.frames import encoded_update_bytes

#: Floor under the consensus envelope so an all-but-converged opening
#: (consensus ~ 1e-16) does not turn numeric noise into violations.
_CONSENSUS_FLOOR = 1e-9

#: Rounds used to establish the consensus envelope's opening level.
_ENVELOPE_WARMUP_ROUNDS = 3


def quantization_bits(spec) -> int | None:
    """The wire bit-width a compressor spec's frames may use (None = never)."""
    if spec.kind == "uniform":
        return spec.params_dict().get("bits")
    if spec.kind == "terngrad":
        return 2
    return None


def feasible_frame_sizes(total_params: int, bits: int | None) -> frozenset:
    """Every byte count a sender can legally put on the wire for ``d`` params.

    The cheapest-format rule means a flow of a ``d``-parameter model is
    always ``encoded_update_bytes(d, M)`` for some suppressed count ``M`` —
    with the quantized variant joining the comparison when the scheme
    carries quantization metadata. Anything outside this set is a corrupted
    ledger entry.
    """
    sizes = {encoded_update_bytes(total_params, m) for m in range(total_params + 1)}
    if bits is not None:
        sizes |= {
            encoded_update_bytes(total_params, m, bits)
            for m in range(total_params + 1)
        }
    return frozenset(sizes)


class InvariantMonitor:
    """Per-round invariant checks over one :class:`SNAPTrainer`.

    Parameters
    ----------
    trainer:
        The trainer to observe. The monitor reads ``engine.state()``, the
        cost tracker, the APE schedule bank, and the weight matrix; it
        never mutates anything.
    atol:
        Absolute tolerance for the structural weight-matrix checks
        (stochasticity sums, symmetry, spectrum endpoints).
    consensus_slack:
        Multiple of the opening consensus envelope the residual may reach
        before the run is declared divergent. Generous by design: the
        invariant targets blow-ups, not the bounded oscillation faults and
        suppression legitimately cause.
    """

    def __init__(
        self,
        trainer,
        *,
        atol: float = 1e-8,
        consensus_slack: float = 1e3,
    ):
        self.trainer = trainer
        self.atol = float(atol)
        self.consensus_slack = float(consensus_slack)
        #: How many times each named invariant was checked (for reports).
        self.checks: Counter = Counter()
        self._extra_checks: list[tuple[str, Callable]] = []
        #: Flow batches accumulated since the last byte-ledger check, fed by
        #: the tracker's observer hook. This is how the ledger invariant sees
        #: every flow without the tracker retaining per-flow records — it
        #: works identically under ``retain_records=False``. The monitor is
        #: constructed in ``SNAPTrainer.__init__`` before any flow can be
        #: recorded, so no traffic predates the subscription.
        self._pending_flows: list[tuple] = []
        trainer.tracker.add_observer(self._observe_flows)
        self._feasible_size_array: np.ndarray | None = None
        self._threshold_watermarks: np.ndarray | None = None
        self._consensus_envelope: float | None = None
        self._envelope_rounds_seen = 0
        self._drift_watermark = 0

    # -- plumbing ----------------------------------------------------------------

    def add_check(self, name: str, check: Callable) -> None:
        """Register a custom per-round check.

        ``check(monitor, record, down)`` runs after the built-in checks each
        round and reports failures via :meth:`violate`. It reads run state
        through ``monitor.trainer.engine.state()``: the server objects are
        not synced for the monitor.
        """
        self._extra_checks.append((str(name), check))

    def violate(self, invariant: str, detail: str, round_index: int | None = None):
        """Raise the canonical diagnostic for a violated invariant."""
        where = "" if round_index is None else f" at round {round_index}"
        raise InvariantViolation(
            f"invariant '{invariant}' violated{where}: {detail}",
            invariant=invariant,
            round_index=round_index,
        )

    def summary(self) -> dict:
        """Check counts per invariant (all zero means the monitor never ran)."""
        return dict(self.checks)

    def _violate_first(self, invariant: str, verdicts, round_index: int) -> None:
        """Raise for the first row any ``(mask, message)`` verdict flags.

        The masks cover the same rows (nodes or directed edges), in check
        order; ``message(row)`` builds the diagnostic of the first that fails.
        """
        flagged = np.logical_or.reduce([mask for mask, _ in verdicts])
        if flagged.any():
            row = int(np.argmax(flagged))
            message = next(message for mask, message in verdicts if mask[row])
            self.violate(invariant, message(row), round_index)

    # -- run-start checks --------------------------------------------------------

    def on_run_start(self) -> None:
        """Validate the structural weight-matrix contracts before round one."""
        self._check_weight_stochasticity()
        self._check_weight_spectrum()
        if self._threshold_watermarks is None and self.trainer._schedules:
            self._threshold_watermarks = self.trainer._schedules.thresholds.copy()

    def on_topology_swap(self, swap) -> None:
        """Re-validate the mixing contracts after an adaptive topology swap.

        The trainer calls this with the swap already applied, so the checks
        read the *new* ``trainer.weight_matrix`` / ``trainer.topology`` pair
        live — a re-optimized W that lost symmetry, leaked mass onto pruned
        links, or broke the spectral-gap contract is caught by name at the
        swap boundary, not rounds later. A joint swap may also change the
        compressor's byte knob, which changes the analytic feasible frame
        sizes; the cached size table is invalidated so the byte-ledger check
        rebuilds it for the new spec on its next round.
        """
        self.checks["topology-swap"] += 1
        self._check_weight_stochasticity()
        self._check_weight_spectrum()
        self._feasible_size_array = None

    def _check_weight_stochasticity(self) -> None:
        """Symmetry, both stochastic sums and support, on W as CSR (dense or not)."""
        self.checks["weight-stochasticity"] += 1
        W = csr_matrix(self.trainer.weight_matrix, dtype=float)
        n = self.trainer.topology.n_nodes
        if W.shape != (n, n):
            self.violate(
                "weight-stochasticity",
                f"W has shape {W.shape}, topology has {n} nodes",
            )
        asymmetry = float(np.abs((W - W.T).data).max(initial=0.0))
        if asymmetry > self.atol:
            self.violate(
                "weight-stochasticity",
                f"W is not symmetric (max |W - W^T| = {asymmetry:.3e})",
            )
        ones = np.ones(n)
        row_sums = W @ ones
        row_err = np.abs(row_sums - 1.0)
        if float(row_err.max()) > self.atol:
            worst = int(row_err.argmax())
            self.violate(
                "weight-stochasticity",
                f"row {worst} of W sums to {row_sums[worst]:.12f}, "
                f"not 1 (problems (22)/(23) require W 1 = 1)",
            )
        col_err = float(np.abs(W.T @ ones - 1.0).max())
        if col_err > self.atol:
            self.violate(
                "weight-stochasticity",
                f"columns of W do not sum to 1 (max error {col_err:.3e})",
            )
        coo = W.tocoo()
        edges = np.asarray(self.trainer.topology.edges, dtype=np.int64).reshape(-1, 2)
        links = np.concatenate([edges @ [n, 1], edges @ [1, n]])
        off_support = np.where(
            (coo.row != coo.col) & ~np.isin(coo.row * n + coo.col, links),
            np.abs(coo.data),
            0.0,
        )
        if off_support.size and float(off_support.max()) > self.atol:
            k = int(off_support.argmax())
            u, v = int(coo.row[k]), int(coo.col[k])
            self.violate(
                "weight-stochasticity",
                f"W[{u}, {v}] = {coo.data[k]:.3e} but ({u}, {v}) is not an edge "
                "(weights must be supported on the neighbor sets)",
            )

    def _check_weight_spectrum(self) -> None:
        """λ_max = 1 with a gap, λ_min > -1: ``eigvalsh`` on dense W, Lanczos on sparse."""
        self.checks["weight-spectrum"] += 1
        W = self.trainer.weight_matrix
        if issparse(W) and W.shape[0] >= 3:
            from scipy.sparse.linalg import eigsh

            from repro.utils.linalg import smallest_eigenvalue_sparse

            symmetric = ((W + W.T) * 0.5).astype(float)
            v0 = np.random.default_rng(0).standard_normal(symmetric.shape[0])
            second, lam_max = np.sort(
                eigsh(symmetric, k=2, which="LA", v0=v0, return_eigenvectors=False)
            ).tolist()
            lam_min = smallest_eigenvalue_sparse(symmetric)
        else:
            W = np.asarray(W.toarray() if issparse(W) else W, dtype=float)
            eigenvalues = np.sort(np.linalg.eigvalsh(0.5 * (W + W.T))).tolist()
            lam_min, lam_max = eigenvalues[0], eigenvalues[-1]
            second = eigenvalues[-2] if len(eigenvalues) > 1 else None
        if abs(lam_max - 1.0) > 10 * self.atol:
            self.violate(
                "weight-spectrum",
                f"λ_max(W) = {lam_max:.12f}; a doubly stochastic W must have "
                "λ_max = 1 (the consensus eigenvector)",
            )
        if lam_min <= -1.0 + 10 * self.atol:
            self.violate(
                "weight-spectrum",
                f"λ_min(W) = {lam_min:.12f} ≤ -1; EXTRA needs "
                "W̃ = (I + W)/2 ≻ 0",
            )
        if second is not None and second >= 1.0 - 10 * self.atol:
            self.violate(
                "weight-spectrum",
                f"second-largest eigenvalue {second:.12f} touches 1: no "
                "spectral gap, so consensus cannot contract "
                "(disconnected or degenerate mixing)",
            )

    # -- per-round checks --------------------------------------------------------

    def on_round(self, record, down: frozenset = frozenset()) -> None:
        """Run every per-round invariant after one completed round.

        Reads the engine through its protocol (``state()``, the optional
        phases' results), so the servers need not be synced first.
        """
        semi_sync = self.trainer.engine.semi_sync_invariants()
        # Under the semi-synchronous engine a server left behind the fleet
        # still executes old rounds on its own clock, so its flows flush
        # late, tagged with the *earlier* round they belong to. Those late
        # flows are legal in deferred mode; flows tagged with a future round
        # never are (run-ahead past the trainer's target is forbidden).
        deferred = semi_sync is not None
        self._check_ape_budget(record)
        # Pop the accumulated flow batches once: both ledger checks (global
        # and tiered) read the same per-flow evidence for this round.
        batches, self._pending_flows = self._pending_flows, []
        self._check_byte_ledger(record, batches, deferred)
        self._check_hierarchy_ledger(record, batches, deferred)
        self._check_byzantine_bound(record)
        self._check_drift_schedule(record)
        self._check_reference_tracking(record)
        self._check_consensus_envelope(record)
        if semi_sync is not None:
            self._check_semi_sync(record, semi_sync)
        for name, check in self._extra_checks:
            self.checks[name] += 1
            check(self, record, down)

    def _check_ape_budget(self, record) -> None:
        bank = self.trainer._schedules
        if not bank:
            return
        self.checks["ape-budget"] += 1
        thresholds, accumulated = bank.thresholds, bank.accumulated
        if self._threshold_watermarks is None:
            self._threshold_watermarks = thresholds.copy()
        watermarks = self._threshold_watermarks
        active = thresholds > bank.epsilon
        # Line 4 of Algorithm 1 from I_k and 1 + αG, not the bank's cache.
        denominator = bank.stage_iterations * bank.growth**bank.stage_iterations
        expected_send = np.where(active, thresholds / denominator, 0.0)
        send = bank.send_thresholds()
        self._violate_first(
            "ape-budget",
            [
                (
                    accumulated < 0,
                    lambda i: f"server {i}: accumulated APE estimate is "
                    f"negative ({accumulated[i]:.3e})",
                ),
                (
                    active & (accumulated > thresholds),
                    lambda i: f"server {i}: accumulated APE estimate "
                    f"{accumulated[i]:.6e} exceeds the stage budget T_k = "
                    f"{thresholds[i]:.6e} without a stage advance (Algorithm "
                    "1, lines 5-6)",
                ),
                (
                    thresholds > watermarks * (1.0 + 1e-12),
                    lambda i: f"server {i}: stage budget grew from "
                    f"{watermarks[i]:.6e} to {thresholds[i]:.6e}; T_k must "
                    "decay monotonically",
                ),
                (
                    send != expected_send,
                    lambda i: f"server {i}: send threshold {send[i].item()!r} "
                    f"!= T_k / (I_k (1+αG)^I_k) = {expected_send[i].item()!r} "
                    "(Algorithm 1, line 4)",
                ),
            ],
            record.round_index,
        )
        np.copyto(watermarks, thresholds)

    def _observe_flows(self, round_index, sources, destinations, sizes, hops):
        """Tracker observer: stash each validated flow batch until the round check."""
        self._pending_flows.append((int(round_index), sources, destinations, sizes, hops))

    def _check_byte_ledger(self, record, batches, deferred: bool) -> None:
        self.checks["byte-ledger"] += 1
        tracker = self.trainer.tracker
        round_index = record.round_index
        tracked_bytes = tracker.round_bytes(round_index)
        if record.bytes_sent != tracked_bytes:
            self.violate(
                "byte-ledger",
                f"round record reports {record.bytes_sent} bytes but the "
                f"tracker aggregated {tracked_bytes}",
                round_index,
            )
        tracked_cost = tracker.round_cost(round_index)
        if record.cost != tracked_cost:
            self.violate(
                "byte-ledger",
                f"round record reports cost {record.cost} but the tracker "
                f"aggregated {tracked_cost}",
                round_index,
            )
        if self._feasible_size_array is None:
            self._feasible_size_array = np.asarray(
                sorted(
                    feasible_frame_sizes(
                        self.trainer.model.n_params,
                        quantization_bits(self.trainer.compressor_spec),
                    )
                ),
                dtype=np.int64,
            )
        flow_bytes = 0
        flow_cost = 0
        for flow_round, sources, destinations, sizes, hops in batches:
            late = deferred and flow_round < round_index
            if flow_round != round_index and not late:
                self.violate(
                    "byte-ledger",
                    f"flows {sources.tolist()}->{destinations.tolist()} "
                    f"recorded under round {flow_round} during round "
                    f"{round_index}",
                    round_index,
                )
            if sizes.size == 0:
                continue
            if np.any(hops != 1):
                bad = int(np.argmax(hops != 1))
                self.violate(
                    "byte-ledger",
                    f"mesh flow {int(sources[bad])}->{int(destinations[bad])} "
                    f"claims {int(hops[bad])} hops; neighbor traffic is "
                    "single-hop",
                    round_index,
                )
            feasible = np.isin(sizes, self._feasible_size_array)
            if not feasible.all():
                bad = int(np.argmin(feasible))
                d = self.trainer.model.n_params
                self.violate(
                    "byte-ledger",
                    f"flow {int(sources[bad])}->{int(destinations[bad])} "
                    f"carries {int(sizes[bad])} bytes, which is not an "
                    f"analytic frame size for d = {d} parameters (Fig. 3: "
                    "4 + 8N - 4M, 12 (N - M), or the QUANTIZED size)",
                    round_index,
                )
            if not late:
                flow_bytes += int(sizes.sum())
                flow_cost += int((sizes * hops).sum())
        if flow_bytes != record.bytes_sent:
            self.violate(
                "byte-ledger",
                f"the round's flows sum to {flow_bytes} bytes but the round "
                f"record reports {record.bytes_sent}",
                round_index,
            )
        if flow_cost != record.cost:
            self.violate(
                "byte-ledger",
                f"the round's flows sum to cost {flow_cost} but the round "
                f"record reports {record.cost}",
                round_index,
            )

    def _check_hierarchy_ledger(self, record, batches, deferred: bool) -> None:
        tiers = getattr(self.trainer.topology, "tiers", None)
        if tiers is None:
            return
        self.checks["hierarchy-ledger"] += 1
        per_pair: Counter = Counter()
        for flow_round, sources, destinations, sizes, hops in batches:
            late = deferred and flow_round < record.round_index
            for source, destination, size in zip(
                sources.tolist(), destinations.tolist(), sizes.tolist()
            ):
                t_src, t_dst = tiers[source], tiers[destination]
                if abs(t_src - t_dst) > 1:
                    self.violate(
                        "hierarchy-ledger",
                        f"flow {source}->{destination} spans tiers "
                        f"{t_src}->{t_dst}; hierarchical traffic must stay "
                        "within adjacent tiers (edge <-> aggregator <-> "
                        "cloud, never skipping a level)",
                        record.round_index,
                    )
                if not late:
                    per_pair[(min(t_src, t_dst), max(t_src, t_dst))] += int(size)
        decomposed = sum(per_pair.values())
        if decomposed != record.bytes_sent:
            self.violate(
                "hierarchy-ledger",
                f"the per-tier-pair byte decomposition {dict(per_pair)!r} "
                f"sums to {decomposed} but the round record reports "
                f"{record.bytes_sent}: bytes leaked across the tier ledger",
                record.round_index,
            )

    def _check_byzantine_bound(self, record) -> None:
        spec = self.trainer.config.robust_aggregation
        if self.trainer.byzantine_plan is None or spec is None:
            return
        self.checks["byzantine-bound"] += 1
        attackers = self.trainer.byzantine_nodes
        topology = self.trainer.topology
        for node in range(topology.n_nodes):
            if node in attackers:
                continue
            hostile = sum(
                1 for neighbor in topology.neighbors(node) if neighbor in attackers
            )
            if hostile > spec.f:
                self.violate(
                    "byzantine-bound",
                    f"honest server {node} has {hostile} byzantine neighbors "
                    f"but the {spec.kind} aggregator only tolerates f = "
                    f"{spec.f} per neighborhood: the robustness guarantee "
                    "is void for this node",
                    record.round_index,
                )

    def _check_drift_schedule(self, record) -> None:
        schedule = self.trainer.config.drift
        if schedule is None:
            return
        self.checks["drift-schedule"] += 1
        epoch = schedule.epoch(record.round_index)
        if epoch < self._drift_watermark:
            self.violate(
                "drift-schedule",
                f"the drift schedule reports epoch {epoch} at round "
                f"{record.round_index} after already reaching epoch "
                f"{self._drift_watermark}: epochs must be non-decreasing "
                "in the round index",
                record.round_index,
            )
        applied = self.trainer._drift_epoch
        if applied != epoch:
            self.violate(
                "drift-schedule",
                f"the trainer holds shards for drift epoch {applied} but the "
                f"schedule places round {record.round_index} in epoch "
                f"{epoch}: a shard swap was missed or applied early",
                record.round_index,
            )
        self._drift_watermark = epoch

    def _check_reference_tracking(self, record) -> None:
        """The reference-tracking identity, over ``engine.state()``.

        On the vectorized engine ``last_sent`` and the receiver's view are
        one storage (PERFORMANCE.md identity 1), so the identity holds there
        by construction: it is checked meaningfully on the per-edge engines
        and the testbed, whose snapshot reads each side from its own server.
        """
        self.checks["error-feedback"] += 1
        engine = self.trainer.engine
        state = engine.state()
        src, dst, n_nodes = state.src, state.dst, state.params.shape[0]
        # An in-flight edge (a frame in a semi-sync reorder buffer, or one
        # that missed a testbed deadline) has ``last_sent`` ahead of the view
        # until it lands; ``semi-sync`` asserts those frames are conserved.
        in_flight = [u * n_nodes + v for u, v in engine.in_flight_edges()]
        self._violate_first(
            "error-feedback",
            [
                (
                    ~np.isin(src * n_nodes + dst, in_flight)
                    & ~(state.last_sent == state.views).all(axis=1),
                    lambda e: f"last_sent[{src[e]}->{dst[e]}] != views held by "
                    f"{dst[e]}: the confirmed-delivery reference-tracking "
                    "identity broke",
                )
            ],
            record.round_index,
        )

    def _check_semi_sync(self, record, inv: dict) -> None:
        self.checks["semi-sync"] += 1
        if inv["max_progress_staleness"] > inv["tau"]:
            self.violate(
                "semi-sync",
                f"a server started a round with a neighbor "
                f"{inv['max_progress_staleness']} rounds behind, beyond the "
                f"staleness bound tau = {inv['tau']}",
                record.round_index,
            )
        if not inv["monotonic_views"]:
            self.violate(
                "semi-sync",
                "a neighbor view was applied out of order: per-edge view "
                "versions must be strictly monotone (FIFO links + one frame "
                "per round make regressions impossible)",
                record.round_index,
            )
        frames, byte_ledger = inv["frames"], inv["bytes"]
        in_flight = frames["wire"] - frames["applied"] - frames["corrupted"]
        if in_flight < 0 or in_flight != frames["outstanding"]:
            self.violate(
                "semi-sync",
                f"frame conservation broke: {frames['wire']} on the wire != "
                f"{frames['applied']} applied + {frames['corrupted']} "
                f"corrupted + {frames['outstanding']} outstanding",
                record.round_index,
            )
        if in_flight != frames["buffered"]:
            self.violate(
                "semi-sync",
                f"deferred-delivery conservation broke at the round "
                f"boundary: {in_flight} frames unaccounted but "
                f"{frames['buffered']} sitting in reorder buffers (every "
                "scheduled arrival must be settled or buffered)",
                record.round_index,
            )
        bytes_in_flight = (
            byte_ledger["wire"] - byte_ledger["applied"] - byte_ledger["corrupted"]
        )
        if bytes_in_flight < 0 or bytes_in_flight != byte_ledger["buffered"]:
            self.violate(
                "semi-sync",
                f"byte conservation broke under deferred delivery: "
                f"{byte_ledger['wire']} sent != {byte_ledger['applied']} "
                f"applied + {byte_ledger['corrupted']} corrupted + "
                f"{byte_ledger['buffered']} buffered",
                record.round_index,
            )

    def _check_consensus_envelope(self, record) -> None:
        self.checks["consensus-envelope"] += 1
        consensus = record.consensus_error
        if not np.isfinite(record.mean_loss):
            self.violate(
                "consensus-envelope",
                f"mean loss is non-finite ({record.mean_loss!r}): the "
                "trajectory diverged",
                record.round_index,
            )
        if not np.isfinite(consensus) or consensus < 0:
            self.violate(
                "consensus-envelope",
                f"consensus residual is invalid ({consensus!r})",
                record.round_index,
            )
        self._envelope_rounds_seen += 1
        if self._envelope_rounds_seen <= _ENVELOPE_WARMUP_ROUNDS:
            opening = max(consensus, _CONSENSUS_FLOOR)
            if self._consensus_envelope is None:
                self._consensus_envelope = opening
            else:
                self._consensus_envelope = max(self._consensus_envelope, opening)
            return
        ceiling = self.consensus_slack * self._consensus_envelope
        if consensus > ceiling:
            self.violate(
                "consensus-envelope",
                f"consensus residual {consensus:.6e} left its monotone "
                f"envelope (opening level {self._consensus_envelope:.6e} × "
                f"slack {self.consensus_slack:g} = {ceiling:.6e}): EXTRA is "
                "diverging instead of contracting",
                record.round_index,
            )
