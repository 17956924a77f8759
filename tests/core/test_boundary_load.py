"""A mid-run boundary loads the trainer's inputs; it patches no server.

An adaptive topology swap and a drift epoch change only what the trainer
builds its servers from (topology, W, step size, shards). The servers are
then built again by the constructor's own builder, so a server a caller held
from before the boundary keeps the inputs it was built with, and the fleet
afterwards is exactly what ``_build_servers`` makes of the current inputs.
"""

import numpy as np
import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.data import LabelShiftDrift
from repro.runtime.testbed import TestbedRuntime
from repro.simulation.experiments import credit_svm_workload

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
