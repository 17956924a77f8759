"""The semi-synchronous bounded-staleness engine (`repro.core.async_engine`).

Three contracts pinned here:

* **Synchronous anchor** — `tau=0` with uniform clocks is bit-for-bit
  identical to the `ReferenceEngine` digest, clean or faulty; and because
  staleness manifests in *virtual time* rather than in values, even skewed
  clocks leave the `tau=0` trajectory untouched (only the makespan moves).
* **Bounded staleness** — the observed progress staleness never exceeds
  `tau`, runs are deterministic, and waiting time shrinks as `tau` grows.
* **Straggler tolerance** — with a patience configured, a 10x straggler is
  degraded to reweighted mixing instead of stalling the fleet: the fleet
  makespan decouples from the slowest node (the Fig. 9 story), at a
  bounded accuracy cost.
"""

import json

import numpy as np
import pytest

from repro.core.async_engine import SemiSyncEngine
from repro.core.config import SNAPConfig, StragglerStrategy
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.faults.models import (
    GilbertElliottLinkFailures,
    IndependentCorruption,
    MarkovNodeFailures,
    ScheduledStragglers,
)
from repro.faults.plan import FaultPlan
from repro.models.logistic import LogisticRegression
from repro.network.timing import LinkTimingModel
from repro.testing import RunDigest
from repro.topology.graph import Topology

N_NODES = 6
EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]


def _binary_shards(seed=0, n_samples=40, n_features=5, n_nodes=N_NODES):
    rng = np.random.default_rng(seed)
    shards = []
    for _ in range(n_nodes):
        X = rng.normal(size=(n_samples, n_features))
        w = rng.normal(size=n_features)
        y = (X @ w + 0.3 * rng.normal(size=n_samples) > 0).astype(float)
        shards.append(Dataset(X, y))
    return shards


def _fault_plan(clocks=None):
    return FaultPlan(
        links=GilbertElliottLinkFailures(0.25, 0.5, seed=11),
        nodes=MarkovNodeFailures(0.12, 0.6, seed=12),
        corruption=IndependentCorruption(0.08, seed=13),
        clocks=clocks,
    )


def _run(engine, *, rounds=25, fault_plan=None, seed=0, **config_overrides):
    config_overrides.setdefault("optimize_weights", False)
    config = SNAPConfig(engine=engine, max_rounds=rounds, seed=7, **config_overrides)
    trainer = SNAPTrainer(
        LogisticRegression(5),
        _binary_shards(seed=seed),
        Topology(N_NODES, EDGES),
        config,
        fault_plan=fault_plan,
    )
    result = trainer.run(stop_on_convergence=False)
    return trainer, result


def _assert_identical(ref_pair, semi_pair):
    ref_digest = RunDigest.capture(*ref_pair)
    semi_digest = RunDigest.capture(*semi_pair)
    assert ref_digest == semi_digest, ref_digest.diff(semi_digest)


class TestEngineSelection:
    def test_trainer_builds_semisync_engine(self):
        trainer, _ = _run("semisync", rounds=1)
        assert isinstance(trainer.engine, SemiSyncEngine)
        assert trainer.engine.name == "semisync"

    def test_staleness_bound_must_be_non_negative_int(self):
        with pytest.raises(ConfigurationError):
            SNAPConfig(engine="semisync", staleness_bound=-1)
        with pytest.raises(ConfigurationError):
            SNAPConfig(engine="semisync", staleness_bound=1.5)

    def test_patience_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            SNAPConfig(engine="semisync", straggler_patience_s=-0.5)

    def test_timing_must_be_a_link_timing_model(self):
        with pytest.raises(ConfigurationError):
            SNAPConfig(engine="semisync", timing="fast please")
        # the real thing is accepted
        SNAPConfig(engine="semisync", timing=LinkTimingModel())


class TestSynchronousAnchor:
    """tau=0: the event-driven engine collapses to the synchronous digest."""

    def test_clean_network_matches_reference_bit_for_bit(self):
        _assert_identical(_run("reference"), _run("semisync"))

    def test_fault_plan_matches_reference_bit_for_bit(self):
        _assert_identical(
            _run("reference", fault_plan=_fault_plan(), seed=1),
            _run("semisync", fault_plan=_fault_plan(), seed=1),
        )

    def test_reweight_strategy_matches_reference(self):
        kwargs = dict(straggler_strategy=StragglerStrategy.REWEIGHT, seed=2)
        _assert_identical(
            _run("reference", fault_plan=_fault_plan(), **kwargs),
            _run("semisync", fault_plan=_fault_plan(), **kwargs),
        )

    def test_skewed_clocks_change_time_but_not_values(self):
        """Staleness lives in virtual time: with tau=0 and no patience the
        barrier still enforces lockstep *values*, so a 10x straggler only
        stretches the makespan — the digest stays the reference's."""
        skewed = _run(
            "semisync",
            timing=LinkTimingModel(compute_s_per_round=1.0),
            fault_plan=FaultPlan(clocks=ScheduledStragglers({5: 10.0})),
        )
        _assert_identical(_run("reference"), skewed)
        semi = skewed[1].info["semi_sync"]
        # The slow node paces the fleet: 25 rounds at 10 s/round dominate.
        assert semi["makespan_s"] >= 25 * 10.0
        assert semi["left_behind"] == []
        assert semi["degraded_events"] == 0


class TestBoundedStaleness:
    def _straggler_run(self, tau, patience, rounds=20):
        return _run(
            "semisync",
            rounds=rounds,
            staleness_bound=tau,
            straggler_patience_s=patience,
            timing=LinkTimingModel(compute_s_per_round=1.0),
            fault_plan=FaultPlan(clocks=ScheduledStragglers({5: 10.0})),
        )

    def test_progress_staleness_never_exceeds_tau(self):
        for tau in (0, 2, 8):
            _, result = self._straggler_run(tau, patience=None)
            semi = result.info["semi_sync"]
            assert semi["max_progress_staleness"] <= tau
            # A bound > 0 is actually used under a 10x straggler.
            if tau > 0:
                assert semi["max_progress_staleness"] == tau

    def test_waiting_shrinks_as_tau_grows(self):
        blocked = []
        for tau in (0, 2, 8):
            _, result = self._straggler_run(tau, patience=None)
            blocked.append(result.info["semi_sync"]["blocked_time_s"])
        assert blocked[0] > blocked[1] > blocked[2]

    def test_runs_are_deterministic(self):
        first = self._straggler_run(2, patience=4.0)
        second = self._straggler_run(2, patience=4.0)
        _assert_identical(first, second)
        assert first[1].info["semi_sync"] == second[1].info["semi_sync"]

    def test_timing_summary_is_json_safe(self):
        _, result = self._straggler_run(2, patience=4.0)
        encoded = json.loads(json.dumps(result.info["semi_sync"]))
        for key in (
            "makespan_s",
            "fleet_makespan_s",
            "node_clock_s",
            "node_rounds",
            "left_behind",
            "degraded_events",
            "blocked_time_s",
            "max_progress_staleness",
            "stale_view_rounds",
        ):
            assert key in encoded

    def test_conservation_ledgers_balance_after_run(self):
        trainer, _ = self._straggler_run(2, patience=4.0)
        ledgers = trainer.engine.semi_sync_invariants()
        frames, bytes_ = ledgers["frames"], ledgers["bytes"]
        assert (
            frames["wire"] - frames["applied"] - frames["corrupted"]
            == frames["outstanding"]
            == frames["buffered"]
        )
        assert (
            bytes_["wire"] - bytes_["applied"] - bytes_["corrupted"]
            == bytes_["buffered"]
        )
        assert ledgers["monotonic_views"] is True


class TestDegradation:
    def test_patience_degrades_the_straggler_instead_of_stalling(self):
        _, result = _run(
            "semisync",
            staleness_bound=2,
            straggler_patience_s=4.0,
            timing=LinkTimingModel(compute_s_per_round=1.0),
            fault_plan=FaultPlan(clocks=ScheduledStragglers({5: 10.0})),
        )
        semi = result.info["semi_sync"]
        assert semi["degraded_events"] > 0
        assert semi["left_behind"] == [5]
        # The fleet decoupled from the slow node: synchronous execution
        # would be straggler-paced (25 rounds x 10 s), the degraded fleet
        # finishes in a small multiple of the healthy compute time.
        assert semi["fleet_makespan_s"] < (25 * 10.0) / 3
        assert np.all(np.isfinite(result.final_params))

    def test_left_behind_node_keeps_executing(self):
        trainer, result = _run(
            "semisync",
            rounds=15,
            staleness_bound=1,
            straggler_patience_s=2.0,
            timing=LinkTimingModel(compute_s_per_round=1.0),
            fault_plan=FaultPlan(clocks=ScheduledStragglers({5: 10.0})),
        )
        rounds_done = result.info["semi_sync"]["node_rounds"]
        assert rounds_done["5"] >= 1  # slow, not abandoned
        assert all(rounds_done[str(n)] == 15 for n in range(5))


@pytest.mark.chaos
class TestStragglerSpeedup:
    """The ISSUE acceptance bar: N=32, one 10x straggler — semi-sync beats
    the synchronous wall-clock >= 3x, accuracy within 2 points."""

    def _workload_run(self, *, tau, patience):
        from repro.simulation.experiments import credit_svm_workload

        workload = credit_svm_workload(
            n_servers=32, n_train=1_600, n_test=400, seed=3
        )
        config = SNAPConfig(
            engine="semisync",
            max_rounds=60,
            seed=7,
            optimize_weights=False,
            staleness_bound=tau,
            straggler_patience_s=patience,
            timing=LinkTimingModel(compute_s_per_round=1.0),
        )
        trainer = SNAPTrainer(
            workload.model,
            workload.shards,
            workload.topology,
            config,
            fault_plan=FaultPlan(clocks=ScheduledStragglers({31: 10.0})),
        )
        result = trainer.run(
            stop_on_convergence=False, test_set=workload.test_set
        )
        return result

    def test_semisync_beats_synchronous_3x_within_2_accuracy_points(self):
        # tau=0 without patience IS the synchronous barrier under the same
        # skewed clocks (digest-equal to ReferenceEngine), so its makespan
        # is the synchronous wall-clock baseline.
        sync = self._workload_run(tau=0, patience=None)
        semi = self._workload_run(tau=2, patience=4.0)
        sync_makespan = sync.info["semi_sync"]["fleet_makespan_s"]
        semi_makespan = semi.info["semi_sync"]["fleet_makespan_s"]
        assert sync_makespan / semi_makespan >= 3.0
        assert abs(sync.final_accuracy - semi.final_accuracy) <= 0.02
