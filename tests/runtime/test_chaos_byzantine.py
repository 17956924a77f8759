"""Chaos tests for the byzantine scenario axis (ISSUE acceptance criterion).

Two headline claims:

* **Defense holds at fleet scale** — an N=32 fleet with 20% sign-flip
  attackers defended by coordinate-wise trimmed-mean finishes within two
  accuracy points of the all-honest baseline, while the same attack with no
  defense wrecks the run.
* **One plan, two runtimes** — a shared byzantine plan replays identically
  on real TCP sockets and in the simulator: byte ledgers and final
  parameters agree exactly, because attackers poison only the transmitted
  vector and both runtimes transmit through the same
  ``SNAPTrainer.transmit_params`` hook.
"""

import numpy as np
import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.data.dataset import Dataset
from repro.faults import FaultPlan
from repro.faults.byzantine import ByzantinePlan, SignFlipAttack
from repro.models.logistic import LogisticRegression
from repro.runtime.testbed import TestbedRuntime
from repro.topology.generators import (
    complete_topology,
    random_regular_topology,
)
from repro.weights.construction import metropolis_weights

pytestmark = pytest.mark.chaos

N_NODES = 32
N_ATTACKERS = 6  # ~20% of the fleet
DEGREE = 12  # (DEGREE - 1) // 2 = 5 trimmable slots per node
FEATURES = 6
SAMPLES_PER_NODE = 40


def _fleet_data(seed=7):
    """Linearly-separable-ish binary shards drawn from one global law."""
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=FEATURES)
    shards = []
    for _ in range(N_NODES):
        X = rng.normal(size=(SAMPLES_PER_NODE, FEATURES))
        noise = 0.3 * rng.normal(size=SAMPLES_PER_NODE)
        shards.append(Dataset(X, (X @ truth + noise > 0).astype(float)))
    return shards


def _accuracy(model, params, shards):
    X = np.concatenate([shard.X for shard in shards])
    y = np.concatenate([shard.y for shard in shards])
    return float(np.mean(model.predict(params, X) == y))


def _run_fleet(byzantine=None, robust=None, rounds=30):
    model = LogisticRegression(FEATURES)
    shards = _fleet_data()
    topo = random_regular_topology(N_NODES, DEGREE, seed=9)
    config = SNAPConfig(
        compressor="changed_only",
        alpha=0.05,
        seed=0,
        engine="vectorized",
        optimize_weights=False,
        robust_aggregation=robust,
    )
    plan = FaultPlan(byzantine=byzantine) if byzantine is not None else None
    trainer = SNAPTrainer(
        model,
        shards,
        topo,
        config=config,
        weight_matrix=metropolis_weights(topo),
        fault_plan=plan,
    )
    trainer.run(max_rounds=rounds, stop_on_convergence=False)
    attackers = trainer.byzantine_nodes
    honest = sorted(set(range(N_NODES)) - attackers)
    params = trainer.stacked_params()[honest].mean(axis=0)
    return _accuracy(model, params, shards), trainer


def _attack_plan():
    # scale=3 makes the poison decisive: the undefended fleet's accuracy
    # collapses below 0.35 while the defended run stays at the baseline.
    return ByzantinePlan(
        SignFlipAttack(scale=3.0), attackers=tuple(range(0, 2 * N_ATTACKERS, 2))
    )


def test_trimmed_mean_holds_fleet_accuracy_under_20pct_sign_flip():
    topo = random_regular_topology(N_NODES, DEGREE, seed=9)
    attackers = _attack_plan().attackers(topo)
    assert len(attackers) == N_ATTACKERS

    # Structural precondition: every honest node's hostile-neighbor count
    # must be coverable by trimming, or the defense's contract is void.
    hostile = max(
        sum(1 for j in topo.neighbors(i) if j in attackers)
        for i in range(N_NODES)
        if i not in attackers
    )
    assert hostile <= (DEGREE - 1) // 2, (
        f"attacker placement overwhelms degree-{DEGREE} trimming"
    )

    honest_acc, _ = _run_fleet()
    defended_acc, trainer = _run_fleet(
        byzantine=_attack_plan(), robust=f"trimmed_mean:f={hostile}"
    )
    assert trainer.byzantine_nodes == attackers
    assert honest_acc > 0.75  # the baseline actually learns
    assert defended_acc >= honest_acc - 0.02, (
        f"defended accuracy {defended_acc:.4f} fell more than 2 points "
        f"below the honest baseline {honest_acc:.4f}"
    )


def test_undefended_sign_flip_degrades_the_fleet():
    """Sanity check on the chaos itself: the same attack with no robust
    mixer drags honest accuracy well below the defended run."""
    honest_acc, _ = _run_fleet()
    undefended_acc, _ = _run_fleet(byzantine=_attack_plan())
    assert honest_acc > 0.75
    assert undefended_acc < 0.5  # the poison wrecks the undefended fleet


def test_byzantine_testbed_matches_simulator_bit_for_bit():
    """One byzantine plan, two runtimes: the TCP testbed and the simulator
    transmit the same poisoned vectors, so byte ledgers, loss traces, and
    final parameters agree exactly."""
    n, rounds = 5, 10
    rng = np.random.default_rng(11)
    truth = rng.normal(size=4)
    shards = []
    for _ in range(n):
        X = rng.normal(size=(24, 4))
        shards.append(Dataset(X, (X @ truth > 0).astype(float)))
    model = LogisticRegression(4)
    topo = complete_topology(n)
    weights = metropolis_weights(topo)
    init = model.init_params(seed=1)

    def plan():
        # Fresh per runtime: plans cache their attacker resolution.
        return FaultPlan(
            byzantine=ByzantinePlan(SignFlipAttack(), attackers=(2,))
        )

    def config():
        return SNAPConfig(
            compressor="changed_only",
            alpha=0.05,
            seed=0,
            robust_aggregation="trimmed_mean:f=1",
        )

    simulated = SNAPTrainer(
        model, shards, topo, config=config(), weight_matrix=weights,
        initial_params=init, fault_plan=plan(),
    )
    sim_result = simulated.run(max_rounds=rounds, stop_on_convergence=False)

    testbed = TestbedRuntime(
        model, shards, topo, config=config(), weight_matrix=weights,
        initial_params=init, fault_plan=plan(), round_deadline_s=5.0,
    )
    net_result = testbed.run(rounds)

    np.testing.assert_array_equal(
        net_result.final_params, simulated.stacked_params()
    )
    assert net_result.payload_bytes_total == sim_result.total_bytes
    assert net_result.per_round_payload_bytes == sim_result.bytes_trace()
    np.testing.assert_allclose(
        net_result.mean_loss_trace, sim_result.loss_trace(), atol=1e-12
    )
