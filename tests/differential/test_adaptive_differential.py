"""Differential pins for mid-run topology swaps.

Every handcrafted scenario below arms the adaptive topology controller and
runs through :func:`repro.testing.differential.run_scenario`, which demands
full digest equality (round trace, flow ledger, final parameters, server
state) across the reference, vectorized and semi-synchronous engines under
strict invariants. The scenarios are chosen so the controller actually
acts: hub-chord topologies whose optimizer drives chord weights under the
pruning threshold, a fault plan that exercises the churn trigger, and
explicit compressors so knob-carrying swaps cross engine boundaries too.

A swap that any engine timed, ordered, or applied differently shows up as
a digest mismatch; a swap the monitor did not re-validate shows up in the
``topology-swap`` check counts pinned per engine.
"""

from __future__ import annotations

import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.data import LabelShiftDrift
from repro.results import TrainingResult
from repro.runtime.testbed import TestbedRuntime
from repro.simulation.experiments import credit_svm_workload
from repro.testing import RunDigest, capture_run
from repro.testing.differential import ENGINES, run_scenario
from repro.testing.scenarios import Scenario

pytestmark = pytest.mark.differential


def adaptive_scenario(index: int, **overrides) -> Scenario:
    """A hand-built adaptive scenario (negative index: not generator-drawn)."""
    base = Scenario(
        master_seed=0,
        index=index,
        n_nodes=8,
        chords=((0, 2), (0, 4), (0, 6)),
        model_kind="logistic",
        n_features=5,
        n_samples=30,
        data_seed=211,
        compressor="ape",
        straggler="stale",
        optimize_weights=True,
        faulty=False,
        fault_seed=0,
        link_p_fail=0.0,
        link_p_recover=1.0,
        node_p_fail=0.0,
        node_p_recover=1.0,
        corruption_rate=0.0,
        max_rounds=12,
        run_seed=29,
        adaptive=True,
        reoptimize_every=3,
        prune_threshold=0.08,
    )
    return base.with_overrides(**overrides)


#: (label, scenario, expect_swap) — expect_swap pins topology-swap >= 1 on
#: every engine, i.e. the run is guaranteed to prune at least once.
CASES = [
    (
        "ape-preset-pruning",
        adaptive_scenario(-2),
        True,
    ),
    (
        "uniform-knob",
        adaptive_scenario(-3, compressor="uniform:bits=6", max_rounds=10),
        True,
    ),
    (
        "churn-trigger",
        adaptive_scenario(
            -4,
            compressor="topk:k=3",
            faulty=True,
            fault_seed=5,
            link_p_fail=0.2,
            link_p_recover=0.6,
            node_p_fail=0.05,
            node_p_recover=0.7,
            corruption_rate=0.0,
            max_rounds=14,
        ),
        False,  # churn decides when/if links prune; equality is the pin
    ),
    (
        "svm-reweight",
        adaptive_scenario(
            -5,
            model_kind="svm",
            compressor="changed_only",
            straggler="reweight",
            reoptimize_every=2,
        ),
        True,
    ),
    (
        "randomk-edge-streams",
        adaptive_scenario(-6, compressor="randomk:k=2", max_rounds=10),
        True,
    ),
]


@pytest.mark.parametrize(
    "label, scenario, expect_swap", CASES, ids=[c[0] for c in CASES]
)
def test_adaptive_scenarios_stay_engine_equal(label, scenario, expect_swap):
    report = run_scenario(scenario, invariants="strict")
    assert report.ok, report.detail
    assert set(report.monitor_checks) == set(ENGINES)
    for engine in ENGINES:
        checks = report.monitor_checks[engine]
        # Strict invariants audited every round on every engine.
        assert checks.get("byte-ledger", 0) >= 1
        if expect_swap:
            assert checks.get("topology-swap", 0) >= 1, (
                f"{label}: {engine} never swapped"
            )
    # All engines saw the identical swap sequence.
    swap_counts = {
        engine: report.monitor_checks[engine].get("topology-swap", 0)
        for engine in ENGINES
    }
    assert len(set(swap_counts.values())) == 1, swap_counts


def test_generated_adaptive_scenarios_exist_and_pass():
    """The generator's adaptive axis produces runnable, engine-equal cases."""
    from repro.testing.scenarios import ScenarioGen

    gen = ScenarioGen(1)
    adaptive = [
        s for s in (gen.scenario(i) for i in range(60)) if s.adaptive
    ]
    assert adaptive, "adaptive axis never fired in 60 draws"
    report = run_scenario(adaptive[0], invariants="strict")
    assert report.ok, report.detail


def test_swap_then_drift_boundary_is_one_digest_everywhere():
    """A topology swap right before a drift epoch: two reloads, one gap.

    The controller re-solves after rounds 3, 6 and 9, each just before the
    label shift starts an epoch (rounds 4, 7, 10); the re-solve after
    round 3 prunes a link, so the next drift reload loads the state the
    swap has just re-indexed. The reference, vectorized and
    semi-synchronous engines and the TCP testbed must digest alike.
    """
    rounds = 12
    workload = credit_svm_workload(n_servers=6, n_train=600, n_test=200, seed=0)
    inputs = (workload.model, workload.shards, workload.topology)

    def config(engine):
        return SNAPConfig(
            seed=0,
            engine=engine,
            drift=LabelShiftDrift(period=3, seed=4),
            adaptive_topology=True,
            topology_reoptimize_every=3,
            invariants="strict",
        )

    digests, trainers = {}, {}
    for engine in ENGINES:
        trainer = SNAPTrainer(*inputs, config(engine))
        digests[engine] = capture_run(trainer, max_rounds=rounds)
        trainers[engine] = trainer

    testbed = TestbedRuntime(*inputs, config=config("reference"))
    records = []
    testbed.trainer.add_round_observer(records.append)
    testbed.run(rounds)
    result = TrainingResult(
        "testbed", records, None, testbed.trainer.mean_params(), 0, 0
    )
    digests["testbed"] = RunDigest.capture(testbed.trainer, result)
    trainers["testbed"] = testbed.trainer

    reference = digests["reference"]
    for name, digest in digests.items():
        assert digest == reference, f"{name}: {digest.diff(reference)}"
    for name, trainer in trainers.items():
        swaps = trainer._topology_controller.swaps
        assert trainer._drift_epoch == 3, name
        assert any(swap.pruned_edges for swap in swaps), name
        assert trainer.monitor.checks["topology-swap"] == len(swaps), name
