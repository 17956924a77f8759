"""The testbed is an engine: its runs digest like the reference simulator's.

``TestbedRuntime`` runs under ``SNAPTrainer.run``, so every setting the
simulator honours must replay over real sockets to the same
:class:`~repro.testing.RunDigest` — the whole ``RoundRecord`` stream
(``params_sent``, ``stale_links``, ``max_staleness``, ``connected``
included), the flow ledger, the final parameters and the per-server state —
or be refused by name before any weight solve.
"""

import numpy as np
import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.data import LabelShiftDrift
from repro.exceptions import ConfigurationError
from repro.faults import (
    FaultPlan,
    GilbertElliottLinkFailures,
    IndependentCorruption,
    MarkovNodeFailures,
)
from repro.results import TrainingResult
from repro.runtime.testbed import TestbedRuntime
from repro.simulation.experiments import credit_svm_workload
from repro.testing import RunDigest

ROUNDS = 12


@pytest.fixture(scope="module")
def workload():
    return credit_svm_workload(n_servers=6, n_train=600, n_test=200, seed=0)


def _stochastic_plan():
    return FaultPlan(
        links=GilbertElliottLinkFailures(0.2, 0.4, seed=1),
        nodes=MarkovNodeFailures(0.1, 0.5, seed=2),
        corruption=IndependentCorruption(0.1, seed=3),
    )


#: case -> (config, fault-plan factory or None, testbed keywords)
CASES = {
    "clean": (SNAPConfig(seed=0), None, {}),
    "strict": (SNAPConfig(seed=0, invariants="strict"), None, {}),
    "drift": (SNAPConfig(seed=0, drift=LabelShiftDrift(period=4, seed=4)), None, {}),
    "adaptive": (
        SNAPConfig(seed=0, adaptive_topology=True, topology_reoptimize_every=3),
        None,
        {},
    ),
    "faults": (
        SNAPConfig(seed=0, invariants="strict"),
        _stochastic_plan,
        {"round_deadline_s": 5.0},
    ),
}


def _testbed_digest(testbed: TestbedRuntime) -> RunDigest:
    """Run the testbed and digest its trainer the way ``capture_run`` would."""
    trainer = testbed.trainer
    records = []
    trainer.add_round_observer(records.append)
    testbed.run(ROUNDS)
    result = TrainingResult(
        "testbed", records, None, trainer.mean_params(), 0, 0
    )
    return RunDigest.capture(trainer, result)


@pytest.mark.parametrize("case", list(CASES))
def test_testbed_digest_equals_the_reference_simulator(workload, case):
    config, plan, keywords = CASES[case]

    def fault_plan():
        # Fresh per runtime: stateful fault models bind to one run.
        return None if plan is None else plan()

    simulated = SNAPTrainer(
        workload.model, workload.shards, workload.topology, config,
        fault_plan=fault_plan(),
    )
    sim_result = simulated.run(max_rounds=ROUNDS, stop_on_convergence=False)
    testbed = TestbedRuntime(
        workload.model, workload.shards, workload.topology, config=config,
        fault_plan=fault_plan(), **keywords,
    )
    net_digest = _testbed_digest(testbed)
    sim_digest = RunDigest.capture(simulated, sim_result)

    assert net_digest == sim_digest, net_digest.diff(sim_digest)
    networked = testbed.trainer
    if config.invariants == "strict":
        assert networked.monitor.checks == simulated.monitor.checks
        assert networked.monitor.checks["byte-ledger"] == ROUNDS
    if config.drift is not None:
        assert networked._drift_epoch == simulated._drift_epoch > 0
    if config.adaptive_topology:
        net_swaps, sim_swaps = (
            [swap.pruned_edges for swap in trainer._topology_controller.swaps]
            for trainer in (networked, simulated)
        )
        assert net_swaps == sim_swaps and any(net_swaps)
    if plan is not None:
        assert any(record.stale_links for record in sim_result.rounds)


@pytest.mark.parametrize(
    "field, config, keywords",
    [
        ("engine", {"engine": "vectorized"}, {}),
        ("engine", {"engine": "semisync", "staleness_bound": 2}, {}),
        # Refused by SNAPConfig itself: only the semi-sync engine has a τ.
        ("staleness_bound", {"staleness_bound": 2}, {}),
        ("timeout_s", {}, {"timeout_s": 0}),
        ("round_deadline_s", {}, {"round_deadline_s": -1.0}),
        ("dead_after_misses", {}, {"dead_after_misses": 0}),
        ("crash_schedule", {}, {"crash_schedule": {2: [99]}}),
    ],
)
def test_refused_before_the_trainer_is_built(
    workload, monkeypatch, field, config, keywords
):
    """What the testbed cannot honour is refused by name, before any solve."""

    def no_trainer(*args, **kwargs):
        raise AssertionError("the trainer was built for a refused runtime")

    monkeypatch.setattr(SNAPTrainer, "__init__", no_trainer)
    with pytest.raises(ConfigurationError, match=field):
        TestbedRuntime(
            workload.model, workload.shards, workload.topology,
            config=SNAPConfig(**config), **keywords,
        )


def test_a_run_ended_before_its_first_round_is_empty(workload):
    """``round_down`` may end the run before round one: everyone crashed."""
    everyone = list(workload.topology)
    testbed = TestbedRuntime(
        workload.model, workload.shards, workload.topology,
        config=SNAPConfig(seed=0), crash_schedule={1: everyone},
    )
    initial = testbed.stacked_params()
    result = testbed.run(3)
    assert result.n_rounds == 0 and result.mean_loss_trace == []
    assert result.dead_nodes == frozenset(everyone)
    np.testing.assert_array_equal(result.final_params, initial)


def test_strict_monitor_skips_frames_that_missed_the_deadline(workload, monkeypatch):
    """A frame reported sent but not applied by the deadline leaves the
    sender's ``last_sent`` ahead of the receiver's view: in flight, not a
    broken ``error-feedback`` identity."""
    testbed = TestbedRuntime(
        workload.model, workload.shards, workload.topology,
        config=SNAPConfig(seed=0, invariants="strict"),
        round_deadline_s=0.2, dead_after_misses=2,
    )
    # Node 0's frames leave (the sender marks them delivered) and never land.
    monkeypatch.setattr(
        testbed.nodes[0], "_transmit",
        lambda source, neighbor, message, stage: True, raising=True,
    )
    result = testbed.run(4)
    assert result.n_rounds == 4
    in_flight = testbed.in_flight_edges()
    assert in_flight == {(0, peer) for peer in workload.topology.neighbors(0)}
    assert testbed.trainer.monitor.checks["error-feedback"] == 4
