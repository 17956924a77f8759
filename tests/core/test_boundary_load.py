"""A mid-run boundary loads the trainer's inputs; it patches no server.

An adaptive topology swap and a drift epoch change only what the trainer
builds its servers from (topology, W, step size, shards). The servers are
then built again by the constructor's own builder, so a server a caller held
from before the boundary keeps the inputs it was built with, and the fleet
afterwards is exactly what ``_build_servers`` makes of the current inputs.
A swap whose W the trainer refuses moves nothing at all.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.data import LabelShiftDrift
from repro.exceptions import ConfigurationError, WeightMatrixError
from repro.runtime.testbed import TestbedRuntime
from repro.simulation.experiments import credit_svm_workload
from repro.weights.adaptive import TopologySwap

ROUNDS = 12

BOUNDARIES = {
    "adaptive": lambda: dict(adaptive_topology=True, topology_reoptimize_every=3),
    "drift": lambda: dict(drift=LabelShiftDrift(period=4, seed=4)),
}


@pytest.fixture(scope="module")
def workload():
    return credit_svm_workload(n_servers=6, n_train=600, n_test=200, seed=0)


def _inputs(server) -> tuple:
    """What a server is built from, copied so a later write shows."""
    return (
        server.node_id,
        server.neighbors,
        server.own_weight,
        server.neighbor_weights,
        server.alpha,
        server.objective_scale,
        server.X.copy(),
        server.y.copy(),
    )


def _assert_same(inputs, expected) -> None:
    *scalars, X, y = inputs
    *want_scalars, want_X, want_y = expected
    assert scalars == want_scalars
    assert np.array_equal(X, want_X) and np.array_equal(y, want_y)


@pytest.mark.parametrize("boundary", list(BOUNDARIES))
@pytest.mark.parametrize("engine", ["reference", "semisync", "testbed"])
def test_a_boundary_leaves_held_servers_and_builds_the_current_fleet(
    workload, monkeypatch, engine, boundary
):
    crossings = []

    def checked(method, crossed):
        def wrapper(trainer, *args):
            held = list(trainer.servers)
            before = [_inputs(server) for server in held]
            epoch = trainer._drift_epoch
            method(trainer, *args)
            if not crossed(trainer, epoch):
                return
            crossings.append(args)
            for server, inputs in zip(held, before):
                _assert_same(_inputs(server), inputs)
            fresh = trainer._build_servers()
            assert len(trainer.servers) == len(fresh)
            for server, built in zip(trainer.servers, fresh):
                _assert_same(_inputs(server), _inputs(built))

        return wrapper

    monkeypatch.setattr(
        SNAPTrainer,
        "apply_swap",
        checked(SNAPTrainer.apply_swap, lambda trainer, epoch: True),
    )
    monkeypatch.setattr(
        SNAPTrainer,
        "_maybe_apply_drift",
        checked(
            SNAPTrainer._maybe_apply_drift,
            lambda trainer, epoch: trainer._drift_epoch != epoch,
        ),
    )
    settings = BOUNDARIES[boundary]()
    if engine == "testbed":
        testbed = TestbedRuntime(
            workload.model,
            workload.shards,
            workload.topology,
            config=SNAPConfig(seed=0, **settings),
        )
        testbed.run(ROUNDS)
        trainer = testbed.trainer
        assert [node.server for node in testbed.nodes] == trainer.servers
    else:
        trainer = SNAPTrainer(
            workload.model,
            workload.shards,
            workload.topology,
            SNAPConfig(seed=0, engine=engine, **settings),
        )
        trainer.run(max_rounds=ROUNDS, stop_on_convergence=False)
    assert crossings


def _asymmetric(matrix, topology):
    u, v = topology.edges[0]
    matrix[u, v] += 0.05


def _stray(matrix, topology):
    # Symmetric and doubly stochastic to 1e-9, well inside
    # ``check_weight_matrix``'s 1e-7, but the mass sits on a non-link.
    n = topology.n_nodes
    u, v = next(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if v not in topology.neighbors(u)
    )
    matrix[[u, v], [v, u]] += 1e-9
    matrix[[u, v], [u, v]] -= 1e-9


BAD_SWAPS = {
    "asymmetric": (_asymmetric, WeightMatrixError, "not symmetric"),
    "stray": (_stray, ConfigurationError, "has mass outside its neighbor set"),
}


@pytest.mark.parametrize("bad", list(BAD_SWAPS))
@pytest.mark.parametrize("invariants", ["off", "strict"])
@pytest.mark.parametrize("engine", ["reference", "vectorized", "semisync"])
def test_a_refused_swap_moves_nothing(workload, engine, invariants, bad):
    corrupt, error, message = BAD_SWAPS[bad]
    trainer = SNAPTrainer(
        workload.model,
        workload.shards,
        workload.topology,
        SNAPConfig(
            seed=0, engine=engine, invariants=invariants, optimize_weights=True
        ),
    )
    trainer.run(max_rounds=3, stop_on_convergence=False)
    topology, matrix, alpha = trainer.topology, trainer.weight_matrix, trainer.alpha
    weights = matrix.copy()
    servers = trainer.servers
    held = list(servers)
    state = trainer.engine.state()
    columns = {name: column.copy() for name, column in vars(state).items()}
    staleness = trainer._staleness.copy()
    edge_states = list(trainer._edge_states)

    bad_matrix = matrix.copy()
    corrupt(bad_matrix, topology)
    swap = TopologySwap(
        round_index=trainer.rounds_completed,
        reason="periodic",
        topology=topology,
        result=replace(trainer._weight_result, matrix=bad_matrix),
        pruned_edges=(),
        compressor_spec=None,
        solver_steps=0,
    )
    with pytest.raises(error, match=message):
        trainer.apply_swap(swap)

    assert trainer.topology is topology
    assert trainer.weight_matrix is matrix and np.array_equal(matrix, weights)
    assert trainer.alpha == alpha
    after = trainer.engine.state()
    for name, column in columns.items():
        assert np.array_equal(getattr(after, name), column), name
    assert np.array_equal(trainer._staleness, staleness)
    assert list(trainer._edge_states) == edge_states
    assert trainer.servers is servers
    assert all(a is b for a, b in zip(trainer.servers, held))
