"""Tests for the ShardWeighting extension (sample-weighted federation)."""

import numpy as np
import pytest

from repro.consensus.convergence import ConvergenceDetector
from repro.core import SNAPConfig, SNAPTrainer
from repro.core.config import ShardWeighting
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.models.ridge import RidgeRegression
from repro.topology.generators import complete_topology


@pytest.fixture
def unequal_shards(rng):
    """Three shards of very different sizes from very different regions."""
    p = 2
    model = RidgeRegression(p, regularization=0.1)
    blocks = []
    for size, offset in ((150, -2.0), (30, 0.0), (20, 3.0)):
        X = rng.normal(size=(size, p))
        y = X @ np.array([1.0, -1.0]) + offset
        blocks.append(Dataset(X, y))
    pooled_X = np.concatenate([b.X for b in blocks])
    pooled_y = np.concatenate([b.y for b in blocks])
    return model, blocks, model.solve_exact(pooled_X, pooled_y)


def run_with(weighting, model, shards):
    trainer = SNAPTrainer(
        model,
        shards,
        complete_topology(3),
        config=SNAPConfig(
            compressor="changed_only",
            shard_weighting=weighting,
            seed=0,
        ),
    )
    trainer.run(
        max_rounds=3000,
        detector=ConvergenceDetector(
            relative_loss_tolerance=1e-10, consensus_tolerance=1e-8, loss_window=10
        ),
    )
    return trainer


class TestSampleWeighting:
    def test_samples_weighting_finds_the_pooled_optimum(self, unequal_shards):
        model, shards, pooled = unequal_shards
        trainer = run_with(ShardWeighting.SAMPLES, model, shards)
        np.testing.assert_allclose(trainer.mean_params(), pooled, atol=1e-3)

    def test_uniform_weighting_finds_a_different_optimum(self, unequal_shards):
        """The paper's eq. (4) optimum differs once shard sizes are unequal."""
        model, shards, pooled = unequal_shards
        trainer = run_with(ShardWeighting.UNIFORM, model, shards)
        gap = np.linalg.norm(trainer.mean_params() - pooled)
        assert gap > 0.05

    def test_equal_shards_make_the_weightings_equivalent(self, rng):
        p = 2
        model = RidgeRegression(p, regularization=0.1)
        X = rng.normal(size=(90, p))
        y = X @ np.array([0.5, 2.0]) + 0.1 * rng.normal(size=90)
        from repro.data.partition import iid_partition

        shards = iid_partition(Dataset(X, y), 3, seed=0)
        a = run_with(ShardWeighting.UNIFORM, model, shards).mean_params()
        b = run_with(ShardWeighting.SAMPLES, model, shards).mean_params()
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_scales_average_to_one(self, unequal_shards):
        model, shards, _ = unequal_shards
        trainer = SNAPTrainer(
            model,
            shards,
            complete_topology(3),
            config=SNAPConfig(shard_weighting=ShardWeighting.SAMPLES, seed=0),
        )
        assert np.mean(trainer._objective_scales) == pytest.approx(1.0)
        largest_shard = max(range(3), key=lambda i: shards[i].n_samples)
        assert trainer._objective_scales[largest_shard] == max(
            trainer._objective_scales
        )

    def test_bad_weighting_rejected(self):
        with pytest.raises(ConfigurationError):
            SNAPConfig(shard_weighting="samples")


class TestServerObjectiveScale:
    def test_scale_multiplies_loss_and_gradient(self, rng):
        from repro.core.server import EdgeServer

        model = RidgeRegression(2, regularization=0.1, fit_intercept=False)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        common = dict(
            node_id=0,
            model=model,
            X=X,
            y=y,
            neighbors=(1,),
            own_weight=0.6,
            neighbor_weights=[0.4],
            alpha=0.1,
            initial_params=np.ones(2),
        )
        plain = EdgeServer(**common)
        scaled = EdgeServer(**common, objective_scale=2.5)
        assert scaled.local_loss() == pytest.approx(2.5 * plain.local_loss())
        np.testing.assert_allclose(
            scaled.local_gradient(np.ones(2)),
            2.5 * plain.local_gradient(np.ones(2)),
        )

    def test_nonpositive_scale_rejected(self, rng):
        from repro.core.server import EdgeServer

        model = RidgeRegression(2, regularization=0.1, fit_intercept=False)
        with pytest.raises(ConfigurationError):
            EdgeServer(
                node_id=0,
                model=model,
                X=rng.normal(size=(5, 2)),
                y=rng.normal(size=5),
                neighbors=(1,),
                own_weight=0.6,
                neighbor_weights=[0.4],
                alpha=0.1,
                initial_params=np.zeros(2),
                objective_scale=0.0,
            )
