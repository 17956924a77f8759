"""Configuration for a SNAP training run."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
)

#: Fraction of the theoretical step-size cap the automatic ``alpha`` uses.
STEP_SAFETY = 0.5
#: Algorithm 1's ε as a fraction of the initial APE threshold.
APE_EPSILON_FRACTION = 0.01
#: Algorithm 1's error amplification ``1 + αG``, set directly at the paper's
#: worked example: the worst-case Lipschitz ``G`` makes the bound so
#: conservative that nothing is ever suppressed (README, "Design notes").
APE_GROWTH = 1.01


class ShardWeighting(enum.Enum):
    """How each server's local objective enters the aggregate sum (eq. 4)."""

    #: The paper's formulation: every server weighted equally, regardless of
    #: shard size. With the paper's near-equal random allocation the two
    #: weightings coincide.
    UNIFORM = "uniform"
    #: Sample-weighted federation: server i's objective is scaled by
    #: ``n_i * N / sum_j n_j``, so the consensual optimum equals the
    #: pooled-data (centralized) optimum even under unequal shard sizes —
    #: the regime non-IID partitions create.
    SAMPLES = "samples"


class StragglerStrategy(enum.Enum):
    """How a server treats a neighbor whose update did not arrive this round."""

    #: The paper's rule (Section IV-D): keep using the latest values
    #: previously received from that neighbor. Simple, but stale values leak
    #: mass out of the doubly-stochastic mixing, leaving a small bias
    #: proportional to the failure rate.
    STALE = "stale"
    #: Ablation: substitute the server's *own* parameters for the missing
    #: neighbor (equivalent to moving that link's weight onto the diagonal
    #: for the round). Each round's effective mixing matrix stays symmetric
    #: doubly stochastic, eliminating the bias at the cost of slower mixing
    #: during outages.
    REWEIGHT = "reweight"


@dataclass
class SNAPConfig:
    """All knobs of a SNAP run, defaulting to the paper's Section V settings.

    Attributes
    ----------
    alpha:
        EXTRA step size; ``None`` selects ``STEP_SAFETY * 2 λ_min(W̃) / L_f``
        (``STEP_SAFETY = 0.5``) automatically from the weight matrix and the
        data (:func:`repro.consensus.safe_step_size`).
    compressor:
        What a server transmits each round: a
        :class:`~repro.compression.CompressorSpec` or a spec string, always
        a normalized spec after construction. The paper's three schemes are
        the presets ``"ape"`` (SNAP, Algorithm 1's threshold; the default),
        ``"changed_only"`` (SNAP-0, threshold zero) and ``"dense"`` (SNO,
        the whole vector every round); anything else (``"topk:k=32"``,
        ``"uniform:bits=6"``, ...) is a compressor of
        :mod:`repro.compression`.
    optimize_weights:
        Run the Section IV-B weight-matrix optimization; ``False`` uses the
        Metropolis baseline of eq. (24) (the "without optimization" series
        of Fig. 5).
    weight_iterations:
        Subgradient steps for the weight-matrix solvers.
    ape_initial_fraction:
        Initial APE threshold as a fraction of the mean absolute initial
        parameter value — the paper initializes it "to be 10% of the mean
        value of all the parameters".
    ape_stage_iterations:
        Minimum iterations per threshold stage (``I_k``); the paper ensures
        "the APE threshold will effect in at least 10 iterations".
    ape_decay:
        Multiplicative threshold decay between stages; the paper "reduces it
        by 10%", i.e. multiplies by 0.9. Algorithm 1's other two constants
        are module constants, not fields: ε is ``APE_EPSILON_FRACTION``
        (0.01) of the initial threshold, and the error amplification
        ``1 + αG`` is ``APE_GROWTH`` (1.01, the paper's worked example).
    straggler_strategy:
        How missing neighbor updates are handled: the paper's
        reuse-the-stale-value rule (default) or the bias-free
        reweight-to-self ablation.
    shard_weighting:
        The paper's equal-weight aggregate (default) or sample-weighted
        federation, which makes the consensual optimum match the pooled
        optimum under unequal shard sizes.
    engine:
        Which simulation engine executes the round loop. ``"reference"``
        (the default) is the per-object oracle; ``"vectorized"`` stacks all
        servers into dense matrices and runs the same algorithm through
        batched numpy / scipy.sparse kernels; ``"semisync"`` is the
        event-driven bounded-staleness engine of
        :mod:`repro.core.async_engine`, where each server advances on its
        own local clock. ``reference`` and ``vectorized`` are bit-for-bit
        equivalent on every seeded configuration (see
        ``docs/PERFORMANCE.md``); ``semisync`` joins that equivalence class
        at ``staleness_bound=0`` with uniform clocks (see
        ``docs/ASYNC.md``).
    staleness_bound:
        Semi-synchronous staleness bound τ (``engine="semisync"`` only; a
        value above 0 on another engine is refused): a
        server may start local round ``k`` while a neighbor's last observed
        round is as old as ``k - 1 - τ``; beyond that it blocks (or, with
        ``straggler_patience_s``, degrades the laggard). ``0`` reproduces
        the synchronous barrier exactly.
    straggler_patience_s:
        How long (simulated seconds) a blocked server waits at the staleness
        barrier before writing the lagging neighbors off as stragglers and
        continuing with reweighted mixing. ``None`` (the default) waits
        forever — correct, but a crashed neighbor then stalls the fleet.
        ``engine="semisync"`` only; set on another engine it is refused.
    timing:
        Optional :class:`~repro.network.timing.LinkTimingModel` supplying
        the per-node compute times and per-link transfer times that drive
        the semi-synchronous engine's event clock. ``None`` uses the model's
        defaults (1 Gbps links, 1 ms latency, zero compute).
        ``engine="semisync"`` only; set on another engine it is refused.
    sparse_weights:
        Build the Metropolis mixing matrix in CSR form instead of a dense
        ``(N, N)`` array (``optimize_weights=False``: the Section IV-B
        optimizer is dense). The sparse matrix is entrywise
        bit-identical to the dense construction; only λ_min(W̃) for the
        automatic step size switches to a sparse eigensolver, so pin
        ``alpha`` explicitly when comparing digests against a dense run.
        This is what keeps N≥4096 runs' memory proportional to edges, not
        N².
    retain_flow_records:
        Keep the per-flow ledger on the trainer's cost tracker: every
        delivered frame's ``(round, source, destination, bytes, hops)``,
        held as int64 columns per round and read back through
        ``tracker.records()`` (:class:`~repro.network.cost.FlowRecord`
        views, built on read) or ``tracker.flow_columns()``. Required by
        analyses that inspect raw flows; large sweeps turn it off to keep
        memory flat (aggregate byte/cost series are always available).
    invariants:
        ``"strict"`` attaches a :class:`repro.testing.InvariantMonitor` to
        the trainer: every round, on every engine, the paper's
        machine-checkable contracts (weight-matrix stochasticity and
        spectrum, the Algorithm 1 APE budget, analytic frame-byte
        conservation, the error-feedback identity, the consensus envelope,
        and the byzantine, drift, hierarchy and semi-sync contracts where
        they apply) are asserted live on the engine's columnar
        ``state()``, and any break raises
        :class:`~repro.exceptions.InvariantViolation` naming the violated
        invariant and the round. ``"off"`` (the default) adds no overhead.
    max_rounds:
        Hard iteration cap.
    seed:
        Seed for tie-breaking randomness (none in the core loop itself, but
        threaded to failure models created from this config and to the
        per-edge generators of stochastic compressors).
    adaptive_topology:
        Attach a :class:`~repro.weights.adaptive.TopologyController` to the
        run: every ``topology_reoptimize_every`` rounds (and after fault
        churn) links whose optimized weight fell below
        ``topology_prune_threshold`` are dropped, the weight matrix is
        re-solved warm-started from the previous solution, and the new
        ``(topology, W)`` pair is swapped into all engines at the round
        boundary. Requires ``optimize_weights=True`` (pruning reads
        optimized weights) and conflicts with ``sparse_weights``. See
        ``docs/TOPOLOGY.md``.
    topology_reoptimize_every:
        Round period of the controller's prune/re-optimize cycle.
    topology_prune_threshold:
        A link is pruned when its optimized weight falls below this value
        (the Section IV-D planning threshold, applied online). Pruning
        never disconnects the graph: a cut that would split the network
        keeps its largest-weight links instead.
    bytes_budget:
        Optional total-bytes budget for the run. When set, the topology
        controller also steps the compressor's byte knob (``uniform`` bits,
        ``topk``/``randomk`` k) down or up at each cycle so the projected
        end-of-run traffic stays inside the budget — the joint
        (topology, compressor) controller of ``docs/TOPOLOGY.md``. Requires
        ``adaptive_topology=True`` and a ``compressor`` of one of those
        kinds; anything else has no knob to step, so the budget is refused
        rather than silently ignored.
    robust_aggregation:
        Optional byzantine-resilient neighbor mixing: a
        :class:`~repro.core.robust.RobustAggregationSpec` or a spec string
        such as ``"trimmed_mean:f=2"``, ``"median"``, or ``"krum:f=1"``.
        ``None`` (the default) is the paper's plain weighted mixing;
        ``f=0`` configures the mixer but reduces *bitwise* to plain mixing.
        Applied identically by all three engines (see ``docs/SCENARIOS.md``).
    drift:
        Optional :class:`~repro.data.drift.DriftSchedule` making local data
        time-varying: at every schedule epoch boundary the trainer swaps
        each server's shard and restarts the EXTRA recursion. Requires the
        paper's ``shard_weighting=UNIFORM`` (sample weights would go stale
        under drift) and ``staleness_bound=0``.
    """

    alpha: float | None = None
    compressor: object = "ape"
    optimize_weights: bool = True
    weight_iterations: int = 150
    ape_initial_fraction: float = 0.10
    ape_stage_iterations: int = 10
    ape_decay: float = 0.9
    straggler_strategy: StragglerStrategy = StragglerStrategy.STALE
    shard_weighting: ShardWeighting = ShardWeighting.UNIFORM
    engine: str = "reference"
    staleness_bound: int = 0
    straggler_patience_s: float | None = None
    timing: object | None = None
    sparse_weights: bool = False
    retain_flow_records: bool = True
    invariants: str = "off"
    max_rounds: int = 500
    seed: int | None = None
    adaptive_topology: bool = False
    topology_reoptimize_every: int = 25
    topology_prune_threshold: float = 0.02
    bytes_budget: int | None = None
    robust_aggregation: object | None = None
    drift: object | None = None

    def __post_init__(self) -> None:
        if self.alpha is not None:
            check_positive("alpha", self.alpha)
        check_positive_int("weight_iterations", self.weight_iterations)
        check_positive("ape_initial_fraction", self.ape_initial_fraction)
        check_positive_int("ape_stage_iterations", self.ape_stage_iterations)
        check_fraction("ape_decay", self.ape_decay)
        if not isinstance(self.straggler_strategy, StragglerStrategy):
            raise ConfigurationError(
                f"straggler_strategy must be a StragglerStrategy, got "
                f"{self.straggler_strategy!r}"
            )
        if not isinstance(self.shard_weighting, ShardWeighting):
            raise ConfigurationError(
                f"shard_weighting must be a ShardWeighting, got "
                f"{self.shard_weighting!r}"
            )
        if self.engine not in ("reference", "vectorized", "semisync"):
            raise ConfigurationError(
                f"engine must be 'reference', 'vectorized', or 'semisync', "
                f"got {self.engine!r}"
            )
        if not isinstance(self.staleness_bound, int) or self.staleness_bound < 0:
            raise ConfigurationError(
                f"staleness_bound must be a non-negative int, got "
                f"{self.staleness_bound!r}"
            )
        if self.straggler_patience_s is not None:
            check_non_negative("straggler_patience_s", self.straggler_patience_s)
        if self.timing is not None:
            from repro.network.timing import LinkTimingModel

            if not isinstance(self.timing, LinkTimingModel):
                raise ConfigurationError(
                    f"timing must be a LinkTimingModel, got {self.timing!r}"
                )
        if self.engine != "semisync":
            for name, unset in (
                ("staleness_bound", self.staleness_bound == 0),
                ("straggler_patience_s", self.straggler_patience_s is None),
                ("timing", self.timing is None),
            ):
                if not unset:
                    raise ConfigurationError(
                        f"{name} drives the semi-synchronous event clock: it "
                        f"requires engine='semisync', got {self.engine!r}"
                    )
        if self.sparse_weights and self.optimize_weights:
            raise ConfigurationError(
                "sparse_weights requires optimize_weights=False: the Section "
                "IV-B weight optimizer produces dense matrices"
            )
        if self.invariants not in ("off", "strict"):
            raise ConfigurationError(
                f"invariants must be 'off' or 'strict', got {self.invariants!r}"
            )
        if self.adaptive_topology:
            if not self.optimize_weights:
                raise ConfigurationError(
                    "adaptive_topology requires optimize_weights=True: the "
                    "online pruning rule reads optimized link weights"
                )
            if self.sparse_weights:
                raise ConfigurationError(
                    "adaptive_topology conflicts with sparse_weights (the "
                    "online re-optimizer is dense, like the Section IV-B one)"
                )
        check_positive_int("topology_reoptimize_every", self.topology_reoptimize_every)
        check_non_negative("topology_prune_threshold", self.topology_prune_threshold)
        check_positive_int("max_rounds", self.max_rounds)
        # Local import: repro.compression imports network/core modules, so a
        # module-level import here would cycle.
        from repro.compression.spec import CompressorSpec

        self.compressor = CompressorSpec.normalize(self.compressor)
        if self.bytes_budget is not None:
            check_positive_int("bytes_budget", self.bytes_budget)
            from repro.weights.adaptive import BYTE_KNOBS

            kind = self.compressor.kind
            if not self.adaptive_topology or kind not in BYTE_KNOBS:
                raise ConfigurationError(
                    "bytes_budget is stepped by the adaptive topology "
                    "controller on a compressor's byte knob: it requires "
                    "adaptive_topology=True and a compressor of kind "
                    f"{', '.join(BYTE_KNOBS)} (got adaptive_topology="
                    f"{self.adaptive_topology}, compressor kind {kind!r})"
                )
        if self.robust_aggregation is not None:
            from repro.core.robust import RobustAggregationSpec

            self.robust_aggregation = RobustAggregationSpec.normalize(
                self.robust_aggregation
            )
        if self.drift is not None:
            from repro.data.drift import DriftSchedule

            if not isinstance(self.drift, DriftSchedule):
                raise ConfigurationError(
                    f"drift must be a DriftSchedule, got {self.drift!r}"
                )
            if self.shard_weighting is not ShardWeighting.UNIFORM:
                raise ConfigurationError(
                    "drift requires shard_weighting=UNIFORM: sample-count "
                    "weights fixed at startup would go stale as shards drift"
                )
            if self.staleness_bound:
                raise ConfigurationError(
                    "drift requires staleness_bound=0: a shard swap at a "
                    "round boundary is only well-defined when no server has "
                    "run ahead of the fleet"
                )
