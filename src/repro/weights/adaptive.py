"""Online topology adaptation: pruning, warm re-solves, and bytes budgets.

The Section IV-B weight optimization runs once, offline, and then the
topology is frozen while APE and the compressors squeeze every byte on the
*links that remain*. This module closes that gap with a
:class:`TopologyController` the trainer consults at round boundaries:

**Online link pruning.** As consensus tightens, problems (22)/(23) push the
weight of redundant links toward zero — a link with (near-)zero mixing
weight contributes nothing to the spectral objective yet still transmits a
frame every round. Every ``reoptimize_every`` rounds (and after fault-churn
recovery) the controller drops links whose optimized weight fell below a
threshold, greedily and connectivity-guarded: candidates are removed in
ascending weight order and a removal that would disconnect the graph is
skipped. This is the online form of the offline
:func:`~repro.weights.planning.plan_neighbor_sets` rule.

**Warm-started re-optimization.** The re-solve after pruning does not cold
start: ``optimize_weight_matrix(..., warm_start=prior)`` resumes each
projected-subgradient solver from its previous edge-Laplacian point (the
pruned edge's coordinate is simply dropped) and continues the diminishing
step schedule, with a ``patience`` cut-off so a re-solve that starts at the
optimum stops after a handful of steps.

**Bandwidth-aware objective.** :func:`edge_cost_vector` turns a
:class:`~repro.network.timing.LinkTimingModel` into normalized per-link
costs (seconds per byte, scaled to max 1); with ``cost_weight > 0`` the
solvers minimize ``objective + cost_weight * <costs, theta>``, trading
spectral gap against weight on expensive links — which then makes those
links the pruning rule's first victims.

**Joint (topology, compressor) bytes budget.** Given a total-bytes budget,
the controller projects the end-of-run spend from the ledger's current
per-round rate and steps the compressor's byte knob (``uniform`` bits down
the {8, 6, 4, 2} ladder, ``topk``/``randomk`` k halving) when the projection
overshoots — and back up toward the configured fidelity when it undershoots
by half. Topology pruning and knob stepping land in one
:class:`TopologySwap` so the trainer swaps a consistent (W, spec) pair.

Every controller decision is a deterministic function of trainer-level
state (round index, optimized weights, ledger totals), so the three engines
fire identical swaps and stay digest-equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import TopologyError
from repro.network.timing import LinkTimingModel
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


def edge_cost_vector(
    topology: Topology, timing: LinkTimingModel | None = None
) -> np.ndarray:
    """Normalized per-link transfer costs, in the topology's edge order.

    Cost of edge ``(u, v)`` is its seconds-per-byte ``1 / bandwidth(u, v)``,
    scaled so the most expensive link costs exactly 1. Under a uniform
    timing model every entry is 1 and the penalty degenerates to a uniform
    weight-shrinkage term; the vector is only interesting when
    ``link_bandwidth`` overrides make links heterogeneous.
    """
    if timing is None:
        timing = LinkTimingModel()
    costs = np.asarray(
        [1.0 / float(timing.bandwidth(u, v)) for u, v in topology.edges],
        dtype=float,
    )
    if costs.size:
        peak = float(costs.max())
        if peak > 0.0:
            costs = costs / peak
    return costs


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
    matrix: np.ndarray
    result: WeightOptimizationResult
    #: Canonical edges dropped by this swap (empty for knob-only swaps).
    pruned_edges: tuple
    #: The new compressor spec, or None when the scheme is unchanged.
    compressor_spec: object | None
    #: Subgradient steps the (warm-started) re-solve spent; 0 if W was reused.
    solver_steps: int
    #: Canonical edges restored by this swap (elastic joins / churn recovery).
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
    reoptimize_every:
        Round period of the prune/re-optimize cycle.
    prune_threshold:
        Links with optimized weight strictly below this are prune candidates.
    cost_weight:
        Weight of the bandwidth penalty in the re-solve objective
        (0 = pure spectral objective).
    timing:
        Link timing model supplying per-edge costs; defaults to the uniform
        model (all costs equal).
    iterations:
        Subgradient iteration cap per re-solve (the patience cut-off usually
        stops warm re-solves far earlier).
    patience:
        Non-improving steps before a re-solve stops early.
    bytes_budget:
        Total-bytes target for the joint controller, or None to disable
        knob stepping.
    spec:
        The trainer's initial compressor spec (the knob's fidelity ceiling).
    """

    def __init__(
        self,
        topology: Topology,
        result: WeightOptimizationResult,
        *,
        reoptimize_every: int = 25,
        prune_threshold: float = 0.02,
        cost_weight: float = 0.0,
        timing: LinkTimingModel | None = None,
        iterations: int = 150,
        patience: int | None = DEFAULT_PATIENCE,
        bytes_budget: int | None = None,
        spec=None,
    ):
        self.topology = topology
        #: The graph the fleet was originally wired on: re-added links are
        #: bounded to this edge set (there is no transport under anything
        #: else), and the cumulative prune history below is relative to it.
        self.base_topology = topology
        self.result = result
        self.reoptimize_every = int(reoptimize_every)
        self.prune_threshold = float(prune_threshold)
        self.cost_weight = float(cost_weight)
        self.timing = timing if timing is not None else LinkTimingModel()
        self.iterations = int(iterations)
        self.patience = patience
        self.bytes_budget = bytes_budget
        self.spec = spec
        #: The configured spec's parameters — the fidelity ceiling the
        #: relax step may climb back to, never beyond.
        self._fidelity_cap = dict(spec.params) if spec is not None else {}
        #: Applied swaps, in order (observability + the trainer's info dict).
        self.swaps: list[TopologySwap] = []
        #: Total subgradient steps spent across all online re-solves.
        self.total_solver_steps = 0
        #: Every base-topology edge currently pruned (the re-add candidate
        #: pool for churn recovery and elastic joins).
        self.pruned_ever: set = set()

    # -- firing rule -------------------------------------------------------------

    def due(self, round_index: int) -> bool:
        """Whether the periodic cycle fires after this round."""
        return round_index % self.reoptimize_every == 0

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
        fleet was wired on — for recovered or newly joined nodes, re-solves
        (22)/(23) warm-started when the edge set changed (or unconditionally
        on ``"churn"`` — link statistics shifted even if no edge died), and
        steps the compressor knob against the bytes budget. When nothing
        changes, no swap is emitted and the run proceeds untouched — an idle
        controller is a bitwise no-op.
        """
        pruned, removed = prune_links(
            self.topology,
            self.result.matrix,
            self.prune_threshold,
            forced=drop_candidates,
        )
        pruned, added = readd_links(pruned, add_candidates, self.base_topology)
        new_spec = self._budget_spec(bytes_spent, rounds_done, total_rounds)
        resolve = bool(removed) or bool(added) or reason == "churn"
        if not resolve and new_spec is None:
            return None
        if resolve:
            edge_costs = (
                edge_cost_vector(pruned, self.timing)
                if self.cost_weight > 0.0
                else None
            )
            result = optimize_weight_matrix(
                pruned,
                iterations=self.iterations,
                warm_start=self.result,
                edge_costs=edge_costs,
                cost_weight=self.cost_weight if edge_costs is not None else 0.0,
                patience=self.patience,
            )
            solver_steps = result.solver_steps
        else:
            result, solver_steps = self.result, 0
        swap = TopologySwap(
            round_index=round_index,
            reason=reason,
            topology=pruned,
            matrix=result.matrix,
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

        The churn-recovery / elastic-join re-add pool: every link the
        controller previously dropped that touches one of the recovered or
        newly joined ``nodes``. Always a subset of the base topology's
        edges, so it is a valid ``add_candidates`` argument by construction.
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
        spec = self.spec
        if (
            self.bytes_budget is None
            or spec is None
            or spec.is_preset
            or rounds_done <= 0
            or total_rounds <= rounds_done
        ):
            return None
        per_round = bytes_spent / rounds_done
        projected = bytes_spent + per_round * (total_rounds - rounds_done)
        if projected > self.bytes_budget:
            return self._step_knob(-1)
        if projected < RELAX_FRACTION * self.bytes_budget:
            return self._step_knob(+1)
        return None

    def _step_knob(self, direction: int):
        """One ladder step on the spec's byte knob; None at the ladder's end."""
        spec = self.spec
        params = spec.params_dict()
        if spec.kind == "uniform":
            bits = int(params["bits"])
            if direction < 0:
                lower = [b for b in BITS_LADDER if b < bits]
                if not lower:
                    return None
                return spec.with_param("bits", max(lower))
            ceiling = int(self._fidelity_cap.get("bits", bits))
            higher = [b for b in BITS_LADDER if bits < b <= ceiling]
            if not higher:
                return None
            return spec.with_param("bits", min(higher))
        if spec.kind in ("topk", "randomk"):
            k = int(params["k"])
            if direction < 0:
                new_k = k // 2
                if new_k < 1 or new_k == k:
                    return None
                return spec.with_param("k", new_k)
            ceiling = int(self._fidelity_cap.get("k", k))
            new_k = min(ceiling, k * 2)
            if new_k == k:
                return None
            return spec.with_param("k", new_k)
        # terngrad and the presets carry no byte knob: topology-only control.
        return None

    # -- observability -----------------------------------------------------------

    def summary(self) -> dict:
        """JSON-safe report for ``TrainingResult.info``."""
        return {
            "swaps": len(self.swaps),
            "pruned_edges": sum(len(s.pruned_edges) for s in self.swaps),
            "added_edges": sum(len(s.added_edges) for s in self.swaps),
            "solver_steps": self.total_solver_steps,
            "final_edges": len(self.topology.edges),
            "final_compressor": (
                self.spec.label if self.spec is not None else None
            ),
            "reasons": [s.reason for s in self.swaps],
        }
