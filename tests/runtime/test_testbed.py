"""Integration tests: the networked testbed equals the in-process simulation."""

import numpy as np
import pytest

from repro.compression import PRESET_KINDS
from repro.core import SNAPConfig, SNAPTrainer
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.exceptions import ConfigurationError
from repro.models.ridge import RidgeRegression
from repro.models.svm import LinearSVM
from repro.runtime.testbed import TestbedRuntime
from repro.runtime.transport import HEADER_BYTES
from repro.topology.generators import complete_topology, random_topology
from repro.weights.construction import metropolis_weights


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


# The ids keep the names these cases had when the schemes were an enum.
@pytest.mark.parametrize(
    "compressor", PRESET_KINDS, ids=lambda kind: f"SelectionPolicy.{kind.upper()}"
)
def test_testbed_matches_simulation_bit_for_bit(ridge_setup, compressor):
    """The headline property: real sockets, identical mathematics."""
    model, shards, topo, weights, init = ridge_setup
    rounds = 12

    simulated = SNAPTrainer(
        model,
        shards,
        topo,
        config=SNAPConfig(compressor=compressor, alpha=0.05, seed=0),
        weight_matrix=weights,
        initial_params=init,
    )
    sim_result = simulated.run(max_rounds=rounds, stop_on_convergence=False)

    testbed = TestbedRuntime(
        model,
        shards,
        topo,
        config=SNAPConfig(compressor=compressor, alpha=0.05, seed=0),
        weight_matrix=weights,
        initial_params=init,
    )
    net_result = testbed.run(rounds)

    np.testing.assert_array_equal(
        net_result.final_params, simulated.stacked_params()
    )
    # The paper's metric — payload bytes written into the socket — matches
    # the simulator's frame accounting exactly.
    assert net_result.payload_bytes_total == sim_result.total_bytes
    assert net_result.per_round_payload_bytes == sim_result.bytes_trace()


def test_testbed_loss_trace_matches_simulation(ridge_setup):
    model, shards, topo, weights, init = ridge_setup
    config = SNAPConfig(compressor="changed_only", alpha=0.05, seed=0)
    simulated = SNAPTrainer(
        model, shards, topo, config=config, weight_matrix=weights,
        initial_params=init,
    )
    sim_result = simulated.run(max_rounds=8, stop_on_convergence=False)
    testbed = TestbedRuntime(
        model, shards, topo, config=config, weight_matrix=weights,
        initial_params=init,
    )
    net_result = testbed.run(8)
    np.testing.assert_allclose(
        net_result.mean_loss_trace, sim_result.loss_trace(), atol=1e-12
    )


def test_testbed_on_sparse_topology_trains_an_svm(rng):
    """A 5-node, degree-limited networked run learns and reports overhead."""
    n, p = 250, 4
    X = rng.normal(size=(n, p))
    y = np.where(X @ rng.normal(size=p) > 0, 1.0, -1.0)
    shards = iid_partition(Dataset(X, y), 5, seed=2)
    model = LinearSVM(p, regularization=1e-2)
    topo = random_topology(5, 2.5, seed=3)
    testbed = TestbedRuntime(
        model,
        shards,
        topo,
        config=SNAPConfig(seed=0),
    )
    result = testbed.run(40)
    assert result.n_rounds == 40
    assert result.mean_loss_trace[-1] < result.mean_loss_trace[0]
    assert result.payload_bytes_total > 0
    # header overhead: one fixed-size header per directed frame
    n_frames = 2 * topo.n_edges * 40
    assert result.header_bytes_total == n_frames * HEADER_BYTES


def test_bad_round_count_rejected(ridge_setup):
    model, shards, topo, weights, init = ridge_setup
    testbed = TestbedRuntime(model, shards, topo, weight_matrix=weights)
    with pytest.raises(ConfigurationError):
        testbed.run(0)


def test_bad_timeout_rejected(ridge_setup):
    model, shards, topo, weights, _ = ridge_setup
    with pytest.raises(ConfigurationError):
        TestbedRuntime(model, shards, topo, weight_matrix=weights, timeout_s=0)
