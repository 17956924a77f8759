"""Online topology adaptation: pruning, warm re-solves, and bytes budgets.

The Section IV-B weight optimization runs once, offline, and then the
topology is frozen while APE and the compressors squeeze every byte on the
*links that remain*. This module closes that gap with a
:class:`TopologyController` the trainer consults at round boundaries:

**Online link pruning.** As consensus tightens, problems (22)/(23) push the
weight of redundant links toward zero — a link with (near-)zero mixing
weight contributes nothing to the spectral objective yet still transmits a
frame every round. Every ``topology_reoptimize_every`` rounds (and after
fault-churn recovery or an APE stage advance) the controller drops links
whose optimized weight fell below a threshold, greedily and
connectivity-guarded: candidates are removed in ascending weight order and
a removal that would disconnect the graph is skipped. This is the online
form of the offline :func:`~repro.weights.planning.plan_neighbor_sets` rule.

**Warm-started re-optimization.** The re-solve after pruning does not cold
start: ``optimize_weight_matrix(..., warm_start=prior)`` resumes each
projected-subgradient solver from its previous edge-Laplacian point (the
pruned edge's coordinate is simply dropped) and continues the diminishing
step schedule, with a :data:`DEFAULT_PATIENCE` cut-off so a re-solve that
starts at the optimum stops after a handful of steps.

**Joint (topology, compressor) bytes budget.** Given a total-bytes budget,
the controller projects the end-of-run spend from the ledger's current
per-round rate and steps the compressor's byte knob (:data:`BYTE_KNOBS`:
``uniform`` bits down the {8, 6, 4, 2} ladder, ``topk``/``randomk`` k
halving) when the projection overshoots — and back up toward the
configured fidelity when it undershoots by half. Topology pruning and knob
stepping land in one :class:`TopologySwap` so the trainer swaps a
consistent (W, spec) pair.

The controller is built from the run's :class:`~repro.core.config.SNAPConfig`
and owns its triggers (:meth:`TopologyController.after_round`). Every
decision is a deterministic function of trainer-level state (round index,
down set, APE stage, optimized weights, ledger totals), so every engine
fires identical swaps and stays digest-equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.graph import Topology
from repro.weights.optimizer import (
    WeightOptimizationResult,
    optimize_weight_matrix,
)

#: Wire bit-widths the budget controller may step a uniform quantizer
#: through, cheapest first. 1-bit uniform quantization is excluded: its
#: reconstruction collapses to the range midpoint and EXTRA stalls.
BITS_LADDER = (2, 4, 6, 8)

#: Projected spend below this fraction of the budget steps fidelity back up.
RELAX_FRACTION = 0.5

#: Default patience for online re-solves: a warm start that lands at the
#: optimum stops after this many non-improving subgradient steps.
DEFAULT_PATIENCE = 20

#: The compressor kinds with a byte knob, and the knob's parameter. A
#: ``bytes_budget`` is only legal with one of them (``SNAPConfig`` checks).
BYTE_KNOBS = {"uniform": "bits", "topk": "k", "randomk": "k"}


def prune_links(
    topology: Topology,
    matrix: np.ndarray,
    threshold: float,
    forced: tuple = (),
) -> tuple[Topology, tuple]:
    """Drop links whose mixing weight fell below ``threshold``, connectivity-guarded.

    Candidates (``W[u, v] < threshold``) are removed greedily in ascending
    weight order; a removal that would disconnect the surviving graph is
    skipped (the guard keeps the *cheapest-to-keep* links among the
    candidates, mirroring :func:`~repro.weights.planning.plan_neighbor_sets`
    falling back to the candidate topology). Returns the pruned topology and
    the tuple of removed canonical edges, in removal order.

    ``forced`` names additional candidate edges to drop regardless of their
    current weight — the orchestrator's membership scheduler uses this to
    retire the links of a device that left the fleet. Forced candidates pass
    through the same ascending-weight order and connectivity guard, so a
    leave can never split the mixing graph.
    """
    if threshold < 0:
        raise TopologyError(f"prune threshold must be >= 0, got {threshold}")
    present = set(topology.edges)
    candidate_edges = {
        (u, v) for u, v in topology.edges if float(matrix[u, v]) < threshold
    }
    for u, v in forced:
        edge = (min(int(u), int(v)), max(int(u), int(v)))
        if edge not in present:
            raise TopologyError(
                f"forced prune candidate {edge} is not a topology edge"
            )
        candidate_edges.add(edge)
    candidates = sorted(
        (float(matrix[u, v]), (u, v)) for u, v in candidate_edges
    )
    removed: list[tuple[int, int]] = []
    current = topology
    for _, edge in candidates:
        trial = current.remove_edges([edge])
        if trial.is_connected():
            current = trial
            removed.append(edge)
    return current, tuple(removed)


def readd_links(
    topology: Topology, candidates: tuple, allowed: Topology
) -> tuple[Topology, tuple]:
    """Restore previously pruned links, bounded to an allowed base graph.

    ``candidates`` are canonical ``(u, v)`` edges to re-add; each must be an
    edge of ``allowed`` (the base topology the fleet was wired on — re-adding
    a link that was never provisioned has no transport underneath it).
    Candidates already present are skipped. Returns the grown topology and
    the tuple of re-added canonical edges, in ascending order.
    """
    allowed_edges = set(allowed.edges)
    present = set(topology.edges)
    added: list[tuple[int, int]] = []
    for u, v in sorted(
        (min(int(u), int(v)), max(int(u), int(v))) for u, v in candidates
    ):
        edge = (u, v)
        if edge not in allowed_edges:
            raise TopologyError(
                f"re-add candidate {edge} is outside the base topology; links "
                "can only be restored where the fleet was wired"
            )
        if edge in present:
            continue
        present.add(edge)
        added.append(edge)
    if not added:
        return topology, ()
    return Topology(topology.n_nodes, present), tuple(added)


@dataclass(frozen=True)
class TopologySwap:
    """One atomic (topology, W, compressor) switch at a round boundary.

    The trainer applies the whole record at once — neighbor sets, mixing
    matrix, step-size cap, staleness ledger, engine state, and (when
    ``compressor_spec`` is not None) the compression scheme — so every
    engine crosses the epoch boundary identically.
    """

    round_index: int
    reason: str  # "periodic" | "churn" | "ape-stage" | "membership"
    topology: Topology
    #: The solve behind the swap: its ``matrix`` is the new W, and its
    #: ``lazy_report`` feeds the new W's step-size cap.
    result: WeightOptimizationResult
    #: Canonical edges dropped by this swap (empty for knob-only swaps).
    pruned_edges: tuple
    #: The new compressor spec, or None when the scheme is unchanged.
    compressor_spec: object | None
    #: Subgradient steps the (warm-started) re-solve spent; 0 if W was reused.
    solver_steps: int
    #: Canonical edges restored by this swap (elastic joins).
    added_edges: tuple = ()


class TopologyController:
    """Decides when and how the runtime prunes, re-solves, and re-budgets.

    Parameters
    ----------
    topology:
        The initial (dense) topology the trainer was built on.
    result:
        The initial :class:`WeightOptimizationResult`; every re-solve
        warm-starts from the latest one.
    config:
        The run's :class:`~repro.core.config.SNAPConfig`. The controller
        reads its settings there: the cycle period
        (``topology_reoptimize_every``), the prune threshold, the re-solve
        iteration cap (``weight_iterations``), ``bytes_budget``, and the
        compressor spec (the knob's fidelity ceiling).
    """

    def __init__(
        self, topology: Topology, result: WeightOptimizationResult, config
    ):
        self.topology = topology
        #: The graph the fleet was originally wired on: re-added links are
        #: bounded to this edge set (there is no transport under anything
        #: else), and the cumulative prune history below is relative to it.
        self.base_topology = topology
        self.result = result
        self.config = config
        self.spec = config.compressor
        #: The configured spec's parameters — the fidelity ceiling the
        #: relax step may climb back to, never beyond.
        self._fidelity_cap = dict(self.spec.params)
        #: Applied swaps, in order (observability + the trainer's info dict).
        self.swaps: list[TopologySwap] = []
        #: Total subgradient steps spent across all online re-solves.
        self.total_solver_steps = 0
        #: Every base-topology edge currently pruned (the re-add candidate
        #: pool for elastic joins).
        self.pruned_ever: set = set()
        #: Down set after the previous round: "some down" followed by "none
        #: down" is the churn-recovery trigger.
        self._last_down: frozenset = frozenset()
        #: Highest APE stage seen so far; an advance is the budget
        #: controller's per-stage decision point.
        self._last_ape_stage = 0

    # -- firing rule -------------------------------------------------------------

    def after_round(
        self,
        round_index: int,
        down: frozenset,
        ape_stage: int,
        *,
        bytes_spent: int,
        total_rounds: int,
    ) -> TopologySwap | None:
        """Run the cycle if a trigger fires after this round; the swap, or None.

        Triggers, in precedence order: fault-churn recovery (the previous
        round had down servers, this one has none — link statistics
        shifted, re-optimize unconditionally), an APE stage
        advance (Algorithm 1's natural epoch boundary, where the budget
        re-decides the joint (topology, knob) point; a churn trigger in the
        same round consumes it), and the periodic
        ``topology_reoptimize_every`` schedule. ``ape_stage`` is the fleet's
        highest APE stage (0 outside the APE preset); ``bytes_spent`` and
        ``total_rounds`` feed the budget projection.
        """
        reason = None
        if self._last_down and not down:
            reason = "churn"
        if ape_stage != self._last_ape_stage:
            self._last_ape_stage = ape_stage
            reason = reason or "ape-stage"
        if reason is None and round_index % self.config.topology_reoptimize_every == 0:
            reason = "periodic"
        self._last_down = down
        if reason is None:
            return None
        return self.propose(
            round_index,
            bytes_spent=bytes_spent,
            rounds_done=round_index,
            total_rounds=total_rounds,
            reason=reason,
        )

    # -- the cycle ---------------------------------------------------------------

    def propose(
        self,
        round_index: int,
        *,
        bytes_spent: int = 0,
        rounds_done: int = 0,
        total_rounds: int = 0,
        reason: str = "periodic",
        drop_candidates: tuple = (),
        add_candidates: tuple = (),
    ) -> TopologySwap | None:
        """Run one controller cycle; returns the swap to apply, or None.

        A cycle prunes below-threshold links (plus any ``drop_candidates``
        forced by a membership scheduler, still connectivity-guarded),
        restores ``add_candidates`` links — bounded to the base topology the
        fleet was wired on — for newly joined nodes, re-solves
        (22)/(23) warm-started when the edge set changed (or unconditionally
        on ``"churn"`` — link statistics shifted even if no edge died), and
        steps the compressor knob against the bytes budget. When nothing
        changes, no swap is emitted and the run proceeds untouched — an idle
        controller is a bitwise no-op.
        """
        config = self.config
        pruned, removed = prune_links(
            self.topology,
            self.result.matrix,
            config.topology_prune_threshold,
            forced=drop_candidates,
        )
        pruned, added = readd_links(pruned, add_candidates, self.base_topology)
        new_spec = self._budget_spec(bytes_spent, rounds_done, total_rounds)
        resolve = bool(removed) or bool(added) or reason == "churn"
        if not resolve and new_spec is None:
            return None
        if resolve:
            result = optimize_weight_matrix(
                pruned,
                iterations=config.weight_iterations,
                warm_start=self.result,
                patience=DEFAULT_PATIENCE,
            )
            solver_steps = result.solver_steps
        else:
            result, solver_steps = self.result, 0
        swap = TopologySwap(
            round_index=round_index,
            reason=reason,
            topology=pruned,
            result=result,
            pruned_edges=removed,
            compressor_spec=new_spec,
            solver_steps=solver_steps,
            added_edges=added,
        )
        self.topology = pruned
        self.result = result
        self.pruned_ever |= set(removed)
        self.pruned_ever -= set(added)
        if new_spec is not None:
            self.spec = new_spec
        self.total_solver_steps += solver_steps
        self.swaps.append(swap)
        return swap

    def readd_candidates(self, nodes) -> tuple:
        """Pruned base-topology links incident to ``nodes``, ascending.

        The elastic-join re-add pool: every link the controller previously
        dropped that touches one of the newly joined ``nodes``. Always a
        subset of the base topology's edges, so it is a valid
        ``add_candidates`` argument by construction.
        """
        wanted = {int(n) for n in nodes}
        return tuple(
            sorted(
                edge
                for edge in self.pruned_ever
                if edge[0] in wanted or edge[1] in wanted
            )
        )

    # -- the bytes-budget knob ---------------------------------------------------

    def _budget_spec(
        self, bytes_spent: int, rounds_done: int, total_rounds: int
    ):
        """The knob step the budget projection demands, or None.

        The projection is the simplest deterministic one: current per-round
        rate extrapolated over the remaining rounds. Overshoot steps the
        knob down (cheaper); undershoot below ``RELAX_FRACTION`` of the
        budget steps it back up, never past the configured fidelity.
        """
        budget = self.config.bytes_budget
        if budget is None or rounds_done <= 0 or total_rounds <= rounds_done:
            return None
        per_round = bytes_spent / rounds_done
        projected = bytes_spent + per_round * (total_rounds - rounds_done)
        if projected > budget:
            return self._step_knob(-1)
        if projected < RELAX_FRACTION * budget:
            return self._step_knob(+1)
        return None

    def _step_knob(self, direction: int):
        """One ladder step on the spec's byte knob; None at the ladder's end.

        ``bits`` moves along :data:`BITS_LADDER`, ``k`` halves or doubles;
        a step up never passes the configured fidelity. A kind outside
        :data:`BYTE_KNOBS` (terngrad, the presets) has no knob.
        """
        spec = self.spec
        knob = BYTE_KNOBS.get(spec.kind)
        if knob is None:
            return None
        value = int(spec.params_dict()[knob])
        ceiling = int(self._fidelity_cap[knob])
        if knob == "bits":
            if direction < 0:
                new = max((b for b in BITS_LADDER if b < value), default=None)
            else:
                new = min(
                    (b for b in BITS_LADDER if value < b <= ceiling), default=None
                )
        else:
            new = value // 2 if direction < 0 else min(ceiling, value * 2)
            if new < 1 or new == value:
                new = None
        return None if new is None else spec.with_param(knob, new)

    # -- observability -----------------------------------------------------------

    def summary(self) -> dict:
        """JSON-safe report for ``TrainingResult.info``."""
        return {
            "swaps": len(self.swaps),
            "pruned_edges": sum(len(s.pruned_edges) for s in self.swaps),
            "added_edges": sum(len(s.added_edges) for s in self.swaps),
            "solver_steps": self.total_solver_steps,
            "final_edges": len(self.topology.edges),
            "final_compressor": self.spec.label,
            "reasons": [s.reason for s in self.swaps],
        }
