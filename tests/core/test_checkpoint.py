"""Tests for checkpoint/resume of SNAP training runs."""

import json

import numpy as np
import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.core.checkpoint import restore_checkpoint, save_checkpoint
from repro.data.dataset import Dataset
from repro.data.drift import LabelShiftDrift
from repro.data.partition import iid_partition
from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan
from repro.models.ridge import RidgeRegression
from repro.topology.failures import IndependentLinkFailures
from repro.topology.generators import random_regular_topology, random_topology


@pytest.fixture
def setup(rng):
    n, p = 150, 3
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + 0.1 * rng.normal(size=n)
    shards = iid_partition(Dataset(X, y), 4, seed=0)
    model = RidgeRegression(p, regularization=0.1)
    topo = random_topology(4, 2.5, seed=1)
    return model, shards, topo


def build_trainer(setup, compressor="ape"):
    model, shards, topo = setup
    return SNAPTrainer(
        model,
        shards,
        topo,
        config=SNAPConfig(compressor=compressor, seed=0),
    )


# The ids keep the names these cases had when the schemes were an enum.
@pytest.mark.parametrize(
    "compressor",
    ["ape", "changed_only"],
    ids=["SelectionPolicy.APE", "SelectionPolicy.CHANGED_ONLY"],
)
def test_resume_is_bit_identical(setup, tmp_path, compressor):
    """10 rounds + checkpoint + 10 rounds == 20 uninterrupted rounds."""
    reference = build_trainer(setup, compressor)
    reference.run(max_rounds=20, stop_on_convergence=False)

    first_half = build_trainer(setup, compressor)
    first_half.run(max_rounds=10, stop_on_convergence=False)
    path = save_checkpoint(first_half, tmp_path / "ckpt.npz")

    resumed = build_trainer(setup, compressor)
    restore_checkpoint(resumed, path)
    resumed.run(max_rounds=10, stop_on_convergence=False)

    np.testing.assert_array_equal(
        resumed.stacked_params(), reference.stacked_params()
    )


def _split_trainer(setup, engine: str, case: str) -> SNAPTrainer:
    """A trainer for one split-run case (a fresh fault plan each call)."""
    model, shards, topo = setup
    config, fault_plan = {"engine": engine, "seed": 0}, None
    if case == "ef:topk:k=2":  # non-zero error-feedback residuals
        config["compressor"] = case
    elif case == "drift":
        config["drift"] = LabelShiftDrift(period=5, seed=2)
    elif case == "link-faults":
        fault_plan = FaultPlan(links=IndependentLinkFailures(0.2, seed=3))
    return SNAPTrainer(
        model, shards, topo, config=SNAPConfig(**config), fault_plan=fault_plan
    )


@pytest.mark.parametrize(
    "engine, case",
    [
        # The APE case keeps the bare engine id it had before the other cases.
        pytest.param(engine, case, id=engine if case == "ape" else f"{engine}-{case}")
        for case in ("ape", "ef:topk:k=2", "link-faults", "drift")
        for engine in ("reference", "vectorized", "semisync")
    ],
)
def test_resume_across_ape_stage_advances_has_equal_digest(
    setup, tmp_path, engine, case
):
    """A run split at round 14 of 27 digests like the uninterrupted one.

    Checkpointed mid-stage (round 14 of 10-round stages) so the APE bank's
    accumulated error and iterations-in-stage columns matter; across drift
    epoch boundaries (rounds 16, 21, 26) and a restored one (round 11);
    with link faults, so the staleness ages reach the round records; and
    with error-feedback residuals. The whole :class:`RunDigest` of the
    resumed 13 rounds — round records, flow ledger, final parameters,
    server state — equals the uninterrupted trainer's over the same rounds,
    whose ledger restarts at the split as a restored trainer's does.
    """
    from repro.network.cost import CommunicationCostTracker
    from repro.testing.digest import RunDigest, server_state_sha

    one_call = _split_trainer(setup, engine, case)
    one_call.run(max_rounds=27, stop_on_convergence=False)
    if case == "ape":
        assert one_call._schedules.stages.max() >= 2

    uninterrupted = _split_trainer(setup, engine, case)
    uninterrupted.run(max_rounds=14, stop_on_convergence=False)
    uninterrupted.tracker = CommunicationCostTracker()
    tail = uninterrupted.run(max_rounds=13, stop_on_convergence=False)
    expected = RunDigest.capture(uninterrupted, tail)
    assert expected.server_state_sha == server_state_sha(one_call)

    first = _split_trainer(setup, engine, case)
    first.run(max_rounds=14, stop_on_convergence=False)
    path = save_checkpoint(first, tmp_path / f"{engine}.npz")
    resumed = _split_trainer(setup, engine, case)
    restore_checkpoint(resumed, path)
    if engine == "vectorized":
        # Columns out, columns in: neither side builds a server.
        assert first._servers is None
        assert resumed._servers is None
    if case == "ape":
        assert [s.state_dict() for s in resumed._schedules] == [
            s.state_dict() for s in first._schedules
        ]
    digest = RunDigest.capture(
        resumed, resumed.run(max_rounds=13, stop_on_convergence=False)
    )
    assert digest == expected, digest.diff(expected)


@pytest.mark.parametrize("case", ["drift", "link-faults"])
@pytest.mark.parametrize("engine", ["reference", "vectorized"])
def test_resumed_round_records_match_on_the_credit_workload(tmp_path, engine, case):
    """Credit SVM at N=8, checkpointed after round 7 and resumed for 9.

    Across a drift epoch (rounds 6 and 11) the restore must put the trainer
    on the last completed round's shards, or round 8 swaps them again and
    restarts the recursion; under link faults the restored staleness ages
    must carry every resumed record's ``max_staleness``.
    """
    from repro.simulation import credit_svm_workload
    from repro.testing.digest import round_trace_entry

    workload = credit_svm_workload(n_servers=8, n_train=800, n_test=100, seed=0)

    def make():
        drift = LabelShiftDrift(period=5, seed=2) if case == "drift" else None
        links = IndependentLinkFailures(0.2, seed=3) if case != "drift" else None
        return SNAPTrainer(
            workload.model,
            workload.shards,
            workload.topology,
            config=SNAPConfig(engine=engine, seed=0, drift=drift),
            fault_plan=FaultPlan(links=links),
        )

    uninterrupted = make()
    expected = uninterrupted.run(max_rounds=16, stop_on_convergence=False)
    first = make()
    first.run(max_rounds=7, stop_on_convergence=False)
    path = save_checkpoint(first, tmp_path / "credit.npz")
    resumed = make()
    restore_checkpoint(resumed, path)
    result = resumed.run(max_rounds=9, stop_on_convergence=False)
    assert [round_trace_entry(r) for r in result.rounds] == [
        round_trace_entry(r) for r in expected.rounds[7:]
    ]
    np.testing.assert_array_equal(result.final_params, expected.final_params)


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

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_other_topology_with_the_same_server_count(self, tmp_path, engine):
        from repro.simulation import credit_svm_workload

        workload = credit_svm_workload(n_servers=8, n_train=400, n_test=100, seed=0)

        def make(topology):
            return SNAPTrainer(
                workload.model,
                workload.shards,
                topology,
                config=SNAPConfig(engine=engine, seed=0, optimize_weights=False),
            )

        trainer = make(workload.topology)
        trainer.run(max_rounds=3, stop_on_convergence=False)
        path = save_checkpoint(trainer, tmp_path / "links.npz")
        other = make(random_regular_topology(8, 3, seed=11))
        with pytest.raises(ConfigurationError, match="links"):
            restore_checkpoint(other, path)

    def test_version_one_file_rejected(self, setup, tmp_path):
        path = tmp_path / "v1.npz"
        meta = json.dumps({"version": 1, "n_servers": 4}).encode("utf-8")
        np.savez(path, __meta__=np.frombuffer(meta, dtype=np.uint8))
        with pytest.raises(ConfigurationError, match="version 1 unsupported"):
            restore_checkpoint(build_trainer(setup), path)

    def test_non_checkpoint_file_rejected(self, setup, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ConfigurationError, match="not a SNAP checkpoint"):
            restore_checkpoint(build_trainer(setup), path)

    def test_snap0_checkpoint_into_ape_trainer_rejected(self, setup, tmp_path):
        snap0 = build_trainer(setup, "changed_only")
        path = save_checkpoint(snap0, tmp_path / "c.npz")
        ape = build_trainer(setup, "ape")
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


class TestSwappingRunsRefused:
    """A checkpoint stores neither a swapped topology, W and step size nor
    the adaptive controller's trigger state, so a run that swaps, or may,
    is refused at save instead of resuming under the initial W."""

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_adaptive_controller_is_refused(self, engine, tmp_path):
        from repro.faults import CrashRestartSchedule
        from tests.core.test_topology_readd import (
            HUB_CHORDS,
            build_trainer as build_ring_trainer,
            ring_with_chords,
        )

        # Node 5 down in rounds 3-4: one churn re-solve that keeps every
        # link but moves W and the step size.
        config = SNAPConfig(
            engine=engine,
            adaptive_topology=True,
            topology_prune_threshold=0.0,
            max_rounds=10,
            seed=2,
        )
        trainer = build_ring_trainer(
            ring_with_chords(12, HUB_CHORDS),
            config,
            fault_plan=FaultPlan(nodes=CrashRestartSchedule({5: [(3, 3), (4, 4)]})),
        )
        initial_alpha = trainer.alpha
        trainer.run(stop_on_convergence=False)
        swaps = trainer._topology_controller.swaps
        assert [swap.reason for swap in swaps] == ["churn"]
        assert trainer.alpha != initial_alpha
        with pytest.raises(ConfigurationError, match="adaptive topology controller"):
            save_checkpoint(trainer, tmp_path / "adaptive.npz")
        assert not list(tmp_path.iterdir())

    def test_membership_swap_is_refused(self, tmp_path):
        """A swap applied from outside the trainer (the testbed's membership
        path) is refused too, though no controller is armed."""
        from repro.weights.adaptive import TopologyController
        from tests.core.test_topology_readd import build_trainer as build_ring_trainer
        from tests.core.test_topology_readd import ring_with_chords

        config = SNAPConfig(optimize_weights=True, weight_iterations=120, seed=3)
        trainer = build_ring_trainer(ring_with_chords(8, [(0, 3), (2, 6)]), config)
        trainer.run(max_rounds=3, stop_on_convergence=False)
        save_checkpoint(trainer, tmp_path / "before.npz")
        controller = TopologyController(
            trainer.topology, trainer._weight_result, trainer.config
        )
        drop = controller.propose(3, reason="membership", drop_candidates=((0, 3),))
        trainer.apply_swap(drop)
        with pytest.raises(ConfigurationError, match="after a topology swap"):
            save_checkpoint(trainer, tmp_path / "after.npz")
