"""Cross-scheme equivalences the paper relies on.

Section V-A: "Consider the topology of our testbed, the accuracy changing
process under PS scheme should be the same as the SNAP-0 scheme" — on a
fully connected testbed with uniform averaging weights, one EXTRA/SNAP-0
iteration mixes exactly like a PS round. We verify the equivalences that are
exactly true in our implementation.
"""

import numpy as np
import pytest

from repro.consensus.extra import ExtraIteration
from repro.core import SNAPConfig, SNAPTrainer
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.models.ridge import RidgeRegression
from repro.topology.generators import complete_topology, random_topology
from repro.weights.construction import metropolis_weights


@pytest.fixture
def ridge_case(rng):
    n, p = 180, 3
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + 0.05 * rng.normal(size=n)
    dataset = Dataset(X, y)
    model = RidgeRegression(p, regularization=0.1)
    return model, dataset


class TestServerMatchesMatrixEngine:
    """The message-level SNAP-0 trainer must replay the matrix-form EXTRA
    recursion exactly when nothing is suppressed and no links fail."""

    @pytest.mark.parametrize("topology_seed", [0, 1, 2])
    def test_exact_replay(self, ridge_case, topology_seed):
        model, dataset = ridge_case
        topo = random_topology(5, 3.0, seed=topology_seed)
        shards = iid_partition(dataset, 5, seed=3)
        weights = metropolis_weights(topo)
        alpha = 0.05
        init = model.init_params(seed=4)

        trainer = SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(
                compressor="changed_only", alpha=alpha, seed=0
            ),
            weight_matrix=weights,
            initial_params=init,
        )
        trainer.run(max_rounds=12, stop_on_convergence=False)

        gradients = [
            lambda w, s=s: model.gradient(w, s.X, s.y) for s in shards
        ]
        engine = ExtraIteration(weights, gradients, alpha)
        state = engine.run(np.tile(init, (5, 1)), 12)

        np.testing.assert_allclose(trainer.stacked_params(), state.current, atol=1e-10)

    def test_sno_replays_identically_to_snap0(self, ridge_case):
        """SNO sends everything, SNAP-0 sends all changes — identical dynamics."""
        model, dataset = ridge_case
        topo = random_topology(4, 2.5, seed=5)
        shards = iid_partition(dataset, 4, seed=6)
        init = model.init_params(seed=7)
        outcomes = {}
        for name, compressor in [
            ("snap0", "changed_only"),
            ("sno", "dense"),
        ]:
            trainer = SNAPTrainer(
                model,
                shards,
                topo,
                config=SNAPConfig(compressor=compressor, alpha=0.05, seed=0),
                weight_matrix=metropolis_weights(topo),
                initial_params=init,
            )
            trainer.run(max_rounds=10, stop_on_convergence=False)
            outcomes[name] = trainer.stacked_params()
        np.testing.assert_allclose(outcomes["snap0"], outcomes["sno"], atol=1e-12)


class TestTestbedPSEquivalence:
    def test_uniform_k3_first_snap_step_is_a_ps_step(self, ridge_case):
        """On K3 with W = J/3, the first EXTRA step equals mix-then-descend,
        which is exactly what one PS round computes from a common model."""
        model, dataset = ridge_case
        topo = complete_topology(3)
        shards = iid_partition(dataset, 3, seed=8)
        uniform = np.full((3, 3), 1.0 / 3.0)
        init = model.init_params(seed=9)
        alpha = 0.05

        trainer = SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(
                compressor="changed_only", alpha=alpha, seed=0
            ),
            weight_matrix=uniform,
            initial_params=init,
        )
        trainer.run(max_rounds=1, stop_on_convergence=False)

        # PS from the same common model: x1 = x0 - alpha * mean gradient.
        # With W uniform and identical x0 rows, W x0 = x0, so the EXTRA step
        # is x0 - alpha * grad_i; the *average* over servers matches PS.
        mean_gradient = np.mean(
            [model.gradient(init, s.X, s.y) for s in shards], axis=0
        )
        ps_step = init - alpha * mean_gradient
        np.testing.assert_allclose(trainer.mean_params(), ps_step, atol=1e-12)
