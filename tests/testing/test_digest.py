"""RunDigest: determinism, legacy-pin compatibility, serialization, diffing."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.config import SNAPConfig
from repro.exceptions import ConfigurationError
from repro.testing import (
    DIGEST_VERSION,
    LEGACY_PIN_KEYS,
    RunDigest,
    Scenario,
    capture_run,
)
from repro.testing.differential import ENGINES
from repro.testing.digest import _hash_array, canonical_bytes, server_state_sha
from repro.testing.scenarios import ScenarioGen

pytestmark = []


def _scenario(**overrides) -> Scenario:
    base = Scenario.from_index(master_seed=1234, index=0)
    return base.with_overrides(max_rounds=5, faulty=False, **overrides)


@pytest.fixture(scope="module")
def digest() -> RunDigest:
    return capture_run(_scenario().build_trainer("reference"))


class TestDeterminism:
    def test_same_run_same_digest(self, digest):
        again = capture_run(_scenario().build_trainer("reference"))
        assert again == digest
        assert again.diff(digest) == ""

    def test_different_seed_different_digest(self, digest):
        other = capture_run(
            _scenario(data_seed=999).build_trainer("reference")
        )
        assert other != digest

    def test_traces_do_not_affect_equality(self, digest):
        stripped = dataclasses.replace(
            digest, rounds_trace=(), ledger_trace=()
        )
        assert stripped == digest  # compare=False fields


class TestLegacyPins:
    def test_pinned_emits_exactly_the_legacy_keys(self, digest):
        pin = digest.pinned()
        assert tuple(pin) == LEGACY_PIN_KEYS

    def test_matches_pin(self, digest):
        assert digest.matches_pin(digest.pinned())
        broken = dict(digest.pinned(), total_bytes=digest.total_bytes + 1)
        assert not digest.matches_pin(broken)


class TestSerialization:
    def test_json_round_trip(self, digest):
        loaded = RunDigest.from_json(digest.to_json())
        assert loaded == digest
        assert loaded.version == DIGEST_VERSION

    def test_version_mismatch_refuses_to_load(self, digest):
        text = digest.to_json().replace(
            f'"version": {DIGEST_VERSION}', '"version": 999'
        )
        with pytest.raises(ConfigurationError) as excinfo:
            RunDigest.from_json(text)
        assert "version" in str(excinfo.value)


class TestDiff:
    def test_diff_names_totals(self, digest):
        other = dataclasses.replace(digest, total_bytes=digest.total_bytes + 7)
        assert "total_bytes" in digest.diff(other)

    def test_diff_points_at_first_diverging_round(self, digest):
        other = capture_run(
            _scenario(run_seed=digest.total_bytes + 1).build_trainer("reference")
        )
        if other == digest:  # pragma: no cover - seeds collide only by luck
            pytest.skip("seed change produced an identical run")
        report = digest.diff(other)
        assert "rounds_sha differs" in report or "total" in report
        if "rounds_sha differs" in report:
            assert "first diverging round" in report

    def test_diff_flags_server_state_only_divergence(self, digest):
        other = dataclasses.replace(digest, server_state_sha="0" * 64)
        assert "server_state_sha" in digest.diff(other)

    def test_diff_against_non_digest(self, digest):
        assert "not a RunDigest" in digest.diff("nope")


class TestNaNBits:
    """A NaN hashes as one bit pattern, whatever its sign or payload."""

    @staticmethod
    def _sha(array) -> str:
        digest = hashlib.sha256()
        _hash_array(digest, "params", array)
        return digest.hexdigest()

    def test_both_nan_signs_hash_alike(self):
        positive, negative = (
            np.array([1.5, 0.0, -0.0]) for _ in range(2)
        )
        positive.view(np.uint64)[1] = 0x7FF8000000000000
        negative.view(np.uint64)[1] = 0xFFF8000000000000
        assert np.isnan(negative[1]) and np.signbit(negative[1])
        assert positive.tobytes() != negative.tobytes()
        assert self._sha(positive) == self._sha(negative)
        assert canonical_bytes(negative) == canonical_bytes(positive)
        assert canonical_bytes(negative) == np.array([1.5, np.nan, -0.0]).tobytes()

    def test_other_bits_are_hashed_as_they_are(self):
        values = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, 1.0])
        assert canonical_bytes(values) == values.tobytes()
        assert self._sha(np.array([0.0])) != self._sha(np.array([-0.0]))
        assert self._sha(np.array([np.nan])) != self._sha(np.array([np.inf]))


def _object_walk_sha(trainer) -> str:
    """The oracle: ``server_state_sha`` as it hashed the synced server objects.

    A frozen copy of the per-server walk the digest made before it folded
    ``engine.state()``; the engine's state must be written back first.
    """
    digest = hashlib.sha256()

    def hash_array(label, array):
        digest.update(label.encode())
        if array is None:
            digest.update(b"<none>")
        else:
            digest.update(np.ascontiguousarray(array).tobytes())

    for server in trainer.servers:
        digest.update(repr((server.node_id, server.iteration)).encode())
        hash_array("params", server.params)
        hash_array("previous", server.previous_params)
        for neighbor in server.neighbors:
            digest.update(repr(("edge", neighbor, server.fresh[neighbor])).encode())
            hash_array("view", server.views[neighbor])
            hash_array("last_sent", server.last_sent[neighbor])
    if trainer._schedules is not None:
        for schedule in trainer._schedules:
            digest.update(repr(sorted(schedule.state_dict().items())).encode())
    return digest.hexdigest()


class TestServerStateFold:
    """``server_state_sha`` over ``engine.state()`` is the object walk's hash."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_generated_scenario_hashes_like_the_object_walk(self, engine):
        """Mid-run, before the engine writes anything back, and after the run."""
        for index in range(25):
            scenario = ScenarioGen(master_seed=0).scenario(index)
            trainer = scenario.build_trainer(engine)
            mid_run = []

            def compare(record, trainer=trainer):
                folded = server_state_sha(trainer)
                trainer.engine.sync_to_servers()
                mid_run.append(folded == _object_walk_sha(trainer))

            trainer.add_round_observer(compare)
            trainer.run(stop_on_convergence=False)
            assert mid_run and all(mid_run), scenario.describe()
            assert server_state_sha(trainer) == _object_walk_sha(trainer), (
                scenario.describe()
            )

    def test_a_testbed_run_hashes_like_the_object_walk(self):
        from repro.runtime.testbed import TestbedRuntime
        from repro.simulation.experiments import credit_svm_workload

        workload = credit_svm_workload(n_servers=5, n_train=300, n_test=100, seed=0)
        testbed = TestbedRuntime(
            workload.model,
            workload.shards,
            workload.topology,
            config=SNAPConfig(seed=0, compressor="topk:k=3"),
        )
        testbed.run(6)
        trainer = testbed.trainer
        assert server_state_sha(trainer) == _object_walk_sha(trainer)
