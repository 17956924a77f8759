"""Monitor self-test: deliberately broken runs the monitors must catch.

A monitoring layer that never fires is indistinguishable from one that
works, so this module injects known contract violations into otherwise
healthy trainers and asserts each one is caught with a diagnostic naming
the violated invariant:

``weight``
    One off-diagonal entry of the validated mixing matrix is perturbed
    after construction (bypassing the constructor's
    :func:`~repro.weights.validation.check_weight_matrix`), breaking
    symmetry and double stochasticity → ``weight-stochasticity``.
``ledger``
    The cost tracker's ``record_many`` (the engines' one ledger write) is
    wrapped to inflate every flow by one byte, pushing sizes off the
    analytic Fig. 3 frame-size lattice → ``byte-ledger``.
``ape``
    A round observer pushes one server's accumulated APE estimate past its
    stage budget in the schedule bank's columns, with no stage advance
    (Algorithm 1 lines 5-6 skipped) → ``ape-budget``.
``swap``
    The adaptive topology controller is wrapped so the re-optimized mixing
    matrix it hands the trainer has one off-diagonal entry perturbed — a
    corrupt online re-solve. The swap-boundary re-validation must refuse it
    by name → ``weight-stochasticity`` (checked under ``topology-swap``).
``byzantine``
    A trimmed-mean defense with tolerance f = 1 faces two attackers that
    are both neighbors of one honest server — the robustness claim is void
    for that neighborhood → ``byzantine-bound``.
``drift``
    The drift schedule is wrapped so its epoch runs *backwards* after the
    first boundary — shards revert to an earlier epoch mid-run →
    ``drift-schedule``.
``hierarchy``
    A tiered run has its topology's tier labels corrupted so one live edge
    spans two levels (edge server wired straight to the cloud) →
    ``hierarchy-ledger``.

Every injection runs on every engine of
:data:`~repro.testing.differential.ENGINES`: a monitor that catches a fault
on the reference engine but reads stale state on the vectorized one would
otherwise pass. ``make verify-invariants`` runs this after the differential
sweep: the sweep proves zero false positives on healthy runs, the self-test
proves non-zero true positives on broken ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import InvariantViolation
from repro.testing.scenarios import Scenario


def _base_scenario(master_seed: int = 0) -> Scenario:
    """A small, clean, APE-preset scenario the injections build on."""
    return Scenario(
        master_seed=master_seed,
        index=-1,  # not part of any generated stream
        n_nodes=5,
        chords=((0, 2),),
        model_kind="logistic",
        n_features=4,
        n_samples=30,
        data_seed=101,
        compressor="ape",
        straggler="stale",
        optimize_weights=False,
        faulty=False,
        fault_seed=0,
        link_p_fail=0.0,
        link_p_recover=1.0,
        node_p_fail=0.0,
        node_p_recover=1.0,
        corruption_rate=0.0,
        max_rounds=8,
        run_seed=17,
    )


def _inject_weight(trainer) -> None:
    # Past the constructor's validation gate: break symmetry and both
    # stochasticity sums in one entry.
    trainer.weight_matrix[0, 1] += 0.05


def _inject_ledger(trainer) -> None:
    tracker = trainer.tracker
    true_record_many = tracker.record_many

    def inflated_record_many(round_index, sources, destinations, sizes, **kwargs):
        inflated = np.asarray(sizes, dtype=np.int64) + 1
        return true_record_many(round_index, sources, destinations, inflated, **kwargs)

    tracker.record_many = inflated_record_many


def _inject_ape(trainer) -> None:
    bank = trainer._schedules

    def overrun(record) -> None:
        # Accumulate far past the budget but never advance the stage —
        # exactly the Algorithm 1 bookkeeping bug the monitor exists for.
        # The bank's columns are the one store every engine's rounds read.
        bank.accumulated[0] = bank.thresholds[0] * 2.0 + 1.0

    trainer.add_round_observer(overrun)


def _adaptive_scenario(master_seed: int = 0) -> Scenario:
    """The base scenario with the online topology controller armed."""
    return _base_scenario(master_seed).with_overrides(
        optimize_weights=True,
        adaptive=True,
        reoptimize_every=2,
        prune_threshold=0.02,
    )


def _inject_swap(trainer) -> None:
    controller = trainer._topology_controller
    true_propose = controller.propose

    def corrupt_propose(round_index, **kwargs):
        swap = true_propose(round_index, **kwargs)
        if swap is None:
            # Force a swap so the injection fires even when nothing pruned:
            # same topology, same result — only the matrix is corrupted.
            from repro.weights.adaptive import TopologySwap

            swap = TopologySwap(
                round_index=round_index,
                reason=kwargs.get("reason", "periodic"),
                topology=controller.topology,
                matrix=controller.result.matrix,
                result=controller.result,
                pruned_edges=(),
                compressor_spec=None,
                solver_steps=0,
            )
        # (0, 1) is a ring edge of every base topology, so support stays
        # legal — the corruption breaks symmetry and both stochastic sums,
        # which only the swap-boundary re-validation can notice.
        matrix = swap.matrix.copy()
        matrix[0, 1] += 0.05
        from dataclasses import replace

        return replace(swap, matrix=matrix)

    controller.propose = corrupt_propose


def _byzantine_scenario(master_seed: int = 0) -> Scenario:
    """The base scenario defended by trimmed-mean against one attacker."""
    return _base_scenario(master_seed).with_overrides(
        byzantine="sign_flip",
        byzantine_nodes=(1,),
        robust="trimmed_mean:f=1",
    )


def _inject_byzantine(trainer) -> None:
    # A second attacker joins a fleet whose defense was sized for one:
    # honest server 2 (neighbors 1, 3, and chord 0) now faces two hostile
    # neighbors while trimmed-mean only tolerates f = 1.
    trainer.byzantine_nodes = frozenset(trainer.byzantine_nodes | {3})


def _drift_scenario(master_seed: int = 0) -> Scenario:
    """The base scenario on a three-round label-shift drift schedule."""
    return _base_scenario(master_seed).with_overrides(
        drift_kind="label_shift", drift_period=3, drift_seed=5
    )


def _inject_drift(trainer) -> None:
    schedule = trainer.config.drift
    true_epoch = schedule.epoch

    def regressing_epoch(round_index: int) -> int:
        # The schedule collapses back to epoch 0 after advancing — shards
        # revert to data the fleet already trained past.
        epoch = true_epoch(round_index)
        return 0 if epoch >= 2 else epoch

    schedule.epoch = regressing_epoch


def _hierarchy_scenario(master_seed: int = 0) -> Scenario:
    """The base scenario on a 7-server cloud/aggregator/edge tree."""
    return _base_scenario(master_seed).with_overrides(
        hierarchy=(2, 2), n_nodes=7, tier_damping=0.5
    )


def _inject_hierarchy(trainer) -> None:
    # Relabel aggregator 1 as an edge server: its live uplink to the cloud
    # (edge 0-1) now spans two levels, which tiered traffic never may.
    tiers = list(trainer.topology.tiers)
    tiers[1] = 2
    trainer.topology._tiers = tuple(tiers)


#: name -> (injector, invariant the monitor must report)
INJECTIONS = {
    "weight": (_inject_weight, "weight-stochasticity"),
    "ledger": (_inject_ledger, "byte-ledger"),
    "ape": (_inject_ape, "ape-budget"),
    "swap": (_inject_swap, "weight-stochasticity"),
    "byzantine": (_inject_byzantine, "byzantine-bound"),
    "drift": (_inject_drift, "drift-schedule"),
    "hierarchy": (_inject_hierarchy, "hierarchy-ledger"),
}


@dataclass(frozen=True)
class SelfTestResult:
    """Outcome of one injection: what was expected vs. what fired."""

    injection: str
    engine: str
    expected_invariant: str
    caught: bool
    diagnostic: str

    def __str__(self) -> str:
        status = "caught" if self.caught else "MISSED"
        return f"[{status}] {self.injection} ({self.engine}): {self.diagnostic}"


def run_injection(
    name: str, master_seed: int = 0, engine: str = "reference"
) -> SelfTestResult:
    """Run one named injection against a fresh monitored ``engine`` trainer."""
    injector, expected = INJECTIONS[name]
    scenario_builders = {
        "swap": _adaptive_scenario,
        "byzantine": _byzantine_scenario,
        "drift": _drift_scenario,
        "hierarchy": _hierarchy_scenario,
    }
    scenario = scenario_builders.get(name, _base_scenario)(master_seed)
    trainer = scenario.build_trainer(engine, invariants="strict")
    injector(trainer)
    try:
        trainer.run(stop_on_convergence=False)
    except InvariantViolation as violation:
        return SelfTestResult(
            injection=name,
            engine=engine,
            expected_invariant=expected,
            caught=violation.invariant == expected,
            diagnostic=str(violation),
        )
    return SelfTestResult(
        injection=name,
        engine=engine,
        expected_invariant=expected,
        caught=False,
        diagnostic=(
            f"run completed cleanly; expected the {expected!r} monitor to fire"
        ),
    )


def run_selftest(master_seed: int = 0) -> list[SelfTestResult]:
    """Run every injection on every engine; each must be caught by name."""
    from repro.testing.differential import ENGINES

    return [
        run_injection(name, master_seed, engine)
        for name in INJECTIONS
        for engine in ENGINES
    ]
