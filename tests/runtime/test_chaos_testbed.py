"""Chaos tests for the TCP testbed: crashes, corruption, silent peers.

The headline claims: a fault plan replays identically on real sockets and
in the simulator (bit-for-bit), a hard-killed server degrades the run
instead of deadlocking it, and wire corruption is caught by the CRC32
check and resolved by the straggler rule — never by a crash.
"""

import numpy as np
import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.faults import (
    CrashRestartSchedule,
    FaultPlan,
    GilbertElliottLinkFailures,
    IndependentCorruption,
    MarkovNodeFailures,
    ScheduledCorruption,
)
from repro.models.ridge import RidgeRegression
from repro.runtime.testbed import TestbedRuntime
from repro.topology.failures import ScheduledFailures
from repro.topology.generators import complete_topology, ring_topology
from repro.weights.construction import metropolis_weights

pytestmark = pytest.mark.chaos


@pytest.fixture
def ridge_setup(rng):
    n, p = 120, 3
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + 0.1 * rng.normal(size=n)
    shards = iid_partition(Dataset(X, y), 3, seed=0)
    model = RidgeRegression(p, regularization=0.1)
    topo = complete_topology(3)
    weights = metropolis_weights(topo)
    init = model.init_params(seed=1)
    return model, shards, topo, weights, init


def _scheduled_plan():
    return FaultPlan(
        links=ScheduledFailures({3: [(0, 1)], 4: [(0, 1)]}),
        nodes=CrashRestartSchedule({1: [(6, 7)]}),
        corruption=ScheduledCorruption({9: [(0, 2)]}),
    )


def _stochastic_plan():
    # Stateful chained models, answered through the plan's per-round memo:
    # with these seeds links burst down from round 3 on, servers 2, 1 and 0
    # each crash for a round, and several frames arrive damaged.
    return FaultPlan(
        links=GilbertElliottLinkFailures(0.2, 0.4, seed=1),
        nodes=MarkovNodeFailures(0.1, 0.5, seed=2),
        corruption=IndependentCorruption(0.1, seed=3),
    )


@pytest.mark.parametrize(
    "plan", [_scheduled_plan, _stochastic_plan], ids=["scheduled", "stochastic"]
)
def test_faulty_testbed_matches_faulty_simulation_bit_for_bit(ridge_setup, plan):
    """One FaultPlan, two runtimes, identical mathematics: link outages,
    node-down spans, and wire corruption all replay exactly — scheduled or
    drawn from seeded Markov chains. ``plan`` builds a fresh plan per
    runtime: fault models bind to one topology instance."""
    model, shards, topo, weights, init = ridge_setup
    rounds = 12

    def config():
        return SNAPConfig(
            compressor="changed_only", alpha=0.05, seed=0
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
    # Every frame the simulator charged and the plan damaged failed the
    # testbed receiver's CRC check.
    checker = plan()
    corrupted = sum(
        checker.corrupted(topo, flow.source, flow.destination, flow.round_index)
        for flow in simulated.tracker.records()
    )
    assert net_result.corrupt_frames_total == corrupted > 0
    # The chaos bit: some link went stale along the way.
    assert any(record.stale_links for record in sim_result.rounds)
    # Final staleness agrees with the simulator's per-link ages.
    assert net_result.link_staleness == simulated.link_staleness


def test_testbed_stale_view_ledger_matches_semisync_engine(ridge_setup):
    """The testbed's ``stale_view_rounds`` ledger counts exactly what the
    semi-synchronous simulator engine counts: rounds a node started with a
    neighbor view older than the previous round. Same fault plan, two
    runtimes, identical straggler ledgers (and zero on a clean run)."""
    model, shards, topo, weights, init = ridge_setup
    rounds = 12
    plan = _scheduled_plan

    def config(engine):
        return SNAPConfig(
            compressor="changed_only",
            alpha=0.05,
            seed=0,
            engine=engine,
        )

    simulated = SNAPTrainer(
        model, shards, topo, config=config("semisync"), weight_matrix=weights,
        initial_params=init, fault_plan=plan(),
    )
    simulated.run(max_rounds=rounds, stop_on_convergence=False)

    testbed = TestbedRuntime(
        model, shards, topo, config=config("reference"),
        weight_matrix=weights, initial_params=init, fault_plan=plan(),
        round_deadline_s=5.0,
    )
    net_result = testbed.run(rounds)

    engine_ledger = dict(simulated.engine.stale_view_rounds)
    testbed_ledger = {
        edge: count
        for edge, count in net_result.stale_view_rounds.items()
        if count  # the engine's Counter only holds incremented edges
    }
    assert testbed_ledger == engine_ledger
    # The faults actually left someone working from an old view.
    assert sum(testbed_ledger.values()) > 0
    # Every directed edge appears in the testbed ledger, stale or not.
    assert set(net_result.stale_view_rounds) == {
        (u, v) for u in topo for v in topo.neighbors(u)
    }


def test_kill_one_server_mid_run_degrades_without_deadlock(rng):
    """Hard-crash a server mid-run: sockets die abruptly, survivors fall
    back to cached views and finish every round."""
    n, p = 200, 3
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p)
    n_servers = 5
    shards = iid_partition(Dataset(X, y), n_servers, seed=2)
    model = RidgeRegression(p, regularization=0.1)
    topo = ring_topology(n_servers)
    rounds = 8
    victim, crash_round = 4, 3

    testbed = TestbedRuntime(
        model,
        shards,
        topo,
        config=SNAPConfig(
            compressor="changed_only", alpha=0.05, seed=0
        ),
        round_deadline_s=3.0,
        crash_schedule={crash_round: [victim]},
    )
    result = testbed.run(rounds)

    assert result.n_rounds == rounds
    assert result.dead_nodes == {victim}
    # The victim stepped only before its crash round.
    victim_node = testbed.nodes[victim]
    assert len(victim_node.loss_trace) == crash_round - 1
    # Every link into the victim's neighbors from the victim went stale and
    # stayed stale for the rest of the run.
    for neighbor in topo.neighbors(victim):
        assert result.link_staleness[(victim, neighbor)] >= (
            rounds - crash_round
        )
    # Survivors kept exchanging: their mutual links are not all stale.
    assert any(
        age == 0
        for (source, _), age in result.link_staleness.items()
        if source != victim
    )
    # Survivors kept learning after the crash.
    assert result.mean_loss_trace[-1] < result.mean_loss_trace[0]


def test_wire_corruption_is_detected_and_survived(ridge_setup):
    """Frames damaged in flight are rejected by the CRC32 check and never
    applied — the receiver keeps its cached view and the run completes."""
    model, shards, topo, weights, init = ridge_setup
    plan = FaultPlan(
        corruption=ScheduledCorruption({2: [(0, 1)], 4: [(2, 0), (1, 2)]})
    )
    testbed = TestbedRuntime(
        model, shards, topo,
        config=SNAPConfig(
            compressor="changed_only", alpha=0.05, seed=0
        ),
        weight_matrix=weights, initial_params=init,
        fault_plan=plan, round_deadline_s=5.0,
    )
    result = testbed.run(6)
    assert result.n_rounds == 6
    assert result.corrupt_frames_total == 3
    assert result.dead_nodes == frozenset()
    # All parameters finite and the run still learned.
    assert np.all(np.isfinite(result.final_params))
    assert result.mean_loss_trace[-1] < result.mean_loss_trace[0]


def test_silent_peer_declared_dead_after_k_misses(rng, monkeypatch):
    """A peer that stays connected but stops sending (silent packet loss)
    costs its neighbors one receive deadline per round until
    ``dead_after_misses`` misses accumulate; after that they stop waiting."""
    n, p = 90, 2
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p)
    shards = iid_partition(Dataset(X, y), 3, seed=3)
    model = RidgeRegression(p, regularization=0.1)
    topo = complete_topology(3)
    rounds = 5

    testbed = TestbedRuntime(
        model, shards, topo,
        config=SNAPConfig(
            compressor="changed_only", alpha=0.05, seed=0
        ),
        round_deadline_s=0.5,
        dead_after_misses=2,
    )
    # Node 0 goes mute: frames are built but never transmitted.
    monkeypatch.setattr(
        testbed.nodes[0], "_transmit",
        lambda source, neighbor, message, stage: False, raising=True,
    )
    result = testbed.run(rounds)

    assert result.n_rounds == rounds
    for other in (1, 2):
        # Node 0's updates never arrived anywhere.
        assert result.link_staleness[(0, other)] == rounds
        # After 2 missed deadlines the peers wrote node 0 off.
        assert 0 in testbed.nodes[other].dead_peers
        assert testbed.nodes[other].miss_streak[0] == 2
    # The mute node still *received* fine.
    assert result.link_staleness[(1, 0)] == 0
    assert result.link_staleness[(2, 0)] == 0


def test_crash_request_api_validates_node(ridge_setup):
    from repro.exceptions import ConfigurationError

    model, shards, topo, weights, init = ridge_setup
    testbed = TestbedRuntime(
        model, shards, topo, weight_matrix=weights, initial_params=init
    )
    with pytest.raises(ConfigurationError):
        testbed.crash(99)


def test_bad_fault_knobs_rejected(ridge_setup):
    from repro.exceptions import ConfigurationError

    model, shards, topo, weights, init = ridge_setup
    with pytest.raises(ConfigurationError):
        TestbedRuntime(
            model, shards, topo, weight_matrix=weights, round_deadline_s=0
        )
    with pytest.raises(ConfigurationError):
        TestbedRuntime(
            model, shards, topo, weight_matrix=weights, dead_after_misses=0
        )
    with pytest.raises(ConfigurationError):
        TestbedRuntime(
            model, shards, topo, weight_matrix=weights,
            crash_schedule={1: [99]},
        )
