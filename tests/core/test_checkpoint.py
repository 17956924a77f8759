"""Tests for checkpoint/resume of SNAP training runs."""

import numpy as np
import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.core.checkpoint import restore_checkpoint, save_checkpoint
from repro.core.config import SelectionPolicy
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.exceptions import ConfigurationError
from repro.models.ridge import RidgeRegression
from repro.topology.generators import random_topology


@pytest.fixture
def setup(rng):
    n, p = 150, 3
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + 0.1 * rng.normal(size=n)
    shards = iid_partition(Dataset(X, y), 4, seed=0)
    model = RidgeRegression(p, regularization=0.1)
    topo = random_topology(4, 2.5, seed=1)
    return model, shards, topo


def build_trainer(setup, selection=SelectionPolicy.APE):
    model, shards, topo = setup
    return SNAPTrainer(
        model,
        shards,
        topo,
        config=SNAPConfig(selection=selection, seed=0),
    )


@pytest.mark.parametrize(
    "selection", [SelectionPolicy.APE, SelectionPolicy.CHANGED_ONLY]
)
def test_resume_is_bit_identical(setup, tmp_path, selection):
    """10 rounds + checkpoint + 10 rounds == 20 uninterrupted rounds."""
    reference = build_trainer(setup, selection)
    reference.run(max_rounds=20, stop_on_convergence=False)

    first_half = build_trainer(setup, selection)
    first_half.run(max_rounds=10, stop_on_convergence=False)
    path = save_checkpoint(first_half, tmp_path / "ckpt.npz")

    resumed = build_trainer(setup, selection)
    restore_checkpoint(resumed, path)
    resumed.run(max_rounds=10, stop_on_convergence=False)

    np.testing.assert_array_equal(
        resumed.stacked_params(), reference.stacked_params()
    )


@pytest.mark.parametrize("engine", ["reference", "vectorized", "semisync"])
def test_resume_across_ape_stage_advances_has_equal_digest(setup, tmp_path, engine):
    """The schedule bank survives ``state_dict`` -> checkpoint -> ``load_state_dict``.

    Checkpointed mid-stage (round 14 of 10-round stages) so the accumulated
    error and iterations-in-stage columns matter; the server-state digest
    hashes every schedule's ``state_dict`` repr, so equal digests mean the
    resumed bank — advanced by array calls on the vectorized engine, by row
    views on the reference and (per event) the semi-synchronous one — is the
    uninterrupted one.
    """
    from repro.testing.digest import server_state_sha

    model, shards, topo = setup

    def make():
        return SNAPTrainer(
            model, shards, topo, config=SNAPConfig(engine=engine, seed=0)
        )

    uninterrupted = make()
    uninterrupted.run(max_rounds=27, stop_on_convergence=False)
    assert uninterrupted._schedules.stages.max() >= 2

    first = make()
    first.run(max_rounds=14, stop_on_convergence=False)
    path = save_checkpoint(first, tmp_path / f"{engine}.npz")
    resumed = make()
    restore_checkpoint(resumed, path)
    assert [s.state_dict() for s in resumed._schedules] == [
        s.state_dict() for s in first._schedules
    ]
    resumed.run(max_rounds=13, stop_on_convergence=False)

    assert server_state_sha(resumed) == server_state_sha(uninterrupted)


@pytest.mark.parametrize("engine", ["reference", "vectorized", "semisync"])
def test_checkpoint_from_a_round_observer_resumes_bit_identically(tmp_path, engine):
    """Round observers run without a write-back, so ``save_checkpoint`` must
    ask the engine for one: saving at round 5 of 10 from an observer,
    restoring into a fresh trainer and running 5 more rounds ends in the
    uninterrupted run's state."""
    from repro.testing.digest import server_state_sha
    from repro.testing.selftest import _base_scenario

    scenario = _base_scenario().with_overrides(max_rounds=10)
    uninterrupted = scenario.build_trainer(engine)
    uninterrupted.run(stop_on_convergence=False)

    observed = scenario.build_trainer(engine)
    path = tmp_path / "mid_run.npz"

    def save_at_round_five(record):
        if record.round_index == 5:
            save_checkpoint(observed, path)

    observed.add_round_observer(save_at_round_five)
    observed.run(stop_on_convergence=False)

    resumed = scenario.build_trainer(engine)
    restore_checkpoint(resumed, path)
    resumed.run(max_rounds=5, stop_on_convergence=False)
    assert server_state_sha(resumed) == server_state_sha(uninterrupted)


def test_restore_recovers_all_server_state(setup, tmp_path):
    trainer = build_trainer(setup)
    trainer.run(max_rounds=7, stop_on_convergence=False)
    path = save_checkpoint(trainer, tmp_path / "state.npz")

    other = build_trainer(setup)
    restore_checkpoint(other, path)
    for original, restored in zip(trainer.servers, other.servers):
        np.testing.assert_array_equal(original.params, restored.params)
        np.testing.assert_array_equal(
            original.previous_params, restored.previous_params
        )
        assert original.iteration == restored.iteration
        assert set(original.views) == set(restored.views)
        for neighbor in original.views:
            np.testing.assert_array_equal(
                original.views[neighbor], restored.views[neighbor]
            )
            np.testing.assert_array_equal(
                original.last_sent[neighbor], restored.last_sent[neighbor]
            )
        assert original.fresh == restored.fresh
    for a, b in zip(trainer._schedules, other._schedules):
        assert a.state_dict() == b.state_dict()


def test_resume_is_exact_under_round_indexed_failures(setup, tmp_path):
    """Failure models sample by round index; a resumed run must continue the
    numbering so the outage pattern matches an uninterrupted run exactly."""
    from repro.faults import FaultPlan
    from repro.topology.failures import (
        IndependentLinkFailures,
        IndependentNodeFailures,
    )

    model, shards, topo = setup

    def make():
        return SNAPTrainer(
            model,
            shards,
            topo,
            config=SNAPConfig(seed=0),
            fault_plan=FaultPlan(
                links=IndependentLinkFailures(0.1, seed=3),
                nodes=IndependentNodeFailures(0.05, seed=4),
            ),
        )

    reference = make()
    reference.run(max_rounds=24, stop_on_convergence=False)

    first = make()
    first.run(max_rounds=12, stop_on_convergence=False)
    path = save_checkpoint(first, tmp_path / "failures.npz")
    resumed = make()
    restore_checkpoint(resumed, path)
    assert resumed.rounds_completed == 12
    result = resumed.run(max_rounds=12, stop_on_convergence=False)

    np.testing.assert_array_equal(
        resumed.stacked_params(), reference.stacked_params()
    )
    # round records continue the global numbering
    assert [r.round_index for r in result.rounds] == list(range(13, 25))


def test_checkpoint_before_first_round(setup, tmp_path):
    trainer = build_trainer(setup)
    path = save_checkpoint(trainer, tmp_path / "fresh.npz")
    other = build_trainer(setup)
    restore_checkpoint(other, path)
    assert other.servers[0].previous_params is None
    other.run(max_rounds=3, stop_on_convergence=False)


class TestMismatchRejection:
    def test_wrong_server_count(self, setup, tmp_path, rng):
        trainer = build_trainer(setup)
        path = save_checkpoint(trainer, tmp_path / "a.npz")
        model, _, _ = setup
        n, p = 90, 3
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        other = SNAPTrainer(
            model,
            iid_partition(Dataset(X, y), 3, seed=0),
            random_topology(3, 2.0, seed=2),
            config=SNAPConfig(seed=0),
        )
        with pytest.raises(ConfigurationError, match="servers"):
            restore_checkpoint(other, path)

    def test_wrong_model_dimension(self, setup, tmp_path, rng):
        trainer = build_trainer(setup)
        path = save_checkpoint(trainer, tmp_path / "b.npz")
        _, _, topo = setup
        bigger = RidgeRegression(5, regularization=0.1)
        n = 120
        X = rng.normal(size=(n, 5))
        y = rng.normal(size=n)
        other = SNAPTrainer(
            bigger,
            iid_partition(Dataset(X, y), 4, seed=0),
            topo,
            config=SNAPConfig(seed=0),
        )
        with pytest.raises(ConfigurationError, match="dimension"):
            restore_checkpoint(other, path)

    def test_non_checkpoint_file_rejected(self, setup, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ConfigurationError, match="not a SNAP checkpoint"):
            restore_checkpoint(build_trainer(setup), path)

    def test_snap0_checkpoint_into_ape_trainer_rejected(self, setup, tmp_path):
        snap0 = build_trainer(setup, SelectionPolicy.CHANGED_ONLY)
        path = save_checkpoint(snap0, tmp_path / "c.npz")
        ape = build_trainer(setup, SelectionPolicy.APE)
        with pytest.raises(
            ConfigurationError, match="'changed_only' run.*configured for 'ape'"
        ):
            restore_checkpoint(ape, path)


class TestCrashSafety:
    """save_checkpoint must be atomic: a crash mid-write never corrupts."""

    def test_interrupted_save_preserves_previous_checkpoint(
        self, setup, tmp_path, monkeypatch
    ):
        trainer = build_trainer(setup)
        trainer.run(max_rounds=5, stop_on_convergence=False)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path)
        good_bytes = path.read_bytes()

        trainer.run(max_rounds=3, stop_on_convergence=False)

        def dies_mid_write(stream, **arrays):
            stream.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", dies_mid_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(trainer, path)

        # The old checkpoint survived intact and still restores.
        assert path.read_bytes() == good_bytes
        resumed = build_trainer(setup)
        restore_checkpoint(resumed, path)

    def test_interrupted_save_leaves_no_temp_files(
        self, setup, tmp_path, monkeypatch
    ):
        trainer = build_trainer(setup)
        trainer.run(max_rounds=2, stop_on_convergence=False)

        def dies(stream, **arrays):
            raise OSError("boom")

        monkeypatch.setattr(np, "savez", dies)
        with pytest.raises(OSError):
            save_checkpoint(trainer, tmp_path / "ckpt.npz")
        assert list(tmp_path.iterdir()) == []

    def test_successful_save_leaves_only_the_checkpoint(self, setup, tmp_path):
        trainer = build_trainer(setup)
        trainer.run(max_rounds=2, stop_on_convergence=False)
        final = save_checkpoint(trainer, tmp_path / "ckpt.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
        assert final == tmp_path / "ckpt.npz"

    def test_checkpoint_restart_is_bit_for_bit_after_overwrite(
        self, setup, tmp_path
    ):
        """Overwriting an existing checkpoint (the crash-safe rename path)
        still restores bit-for-bit."""
        reference = build_trainer(setup)
        reference.run(max_rounds=12, stop_on_convergence=False)

        trainer = build_trainer(setup)
        path = tmp_path / "ckpt.npz"
        trainer.run(max_rounds=3, stop_on_convergence=False)
        save_checkpoint(trainer, path)
        trainer.run(max_rounds=3, stop_on_convergence=False)
        save_checkpoint(trainer, path)  # atomic replace of the first

        resumed = build_trainer(setup)
        restore_checkpoint(resumed, path)
        resumed.run(max_rounds=6, stop_on_convergence=False)
        np.testing.assert_array_equal(
            resumed.stacked_params(), reference.stacked_params()
        )
