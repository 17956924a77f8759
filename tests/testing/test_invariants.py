"""InvariantMonitor: config wiring, clean-run silence, violation catching."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.core.config import SNAPConfig
from repro.exceptions import ConfigurationError, InvariantViolation
from repro.testing import (
    InvariantMonitor,
    feasible_frame_sizes,
    quantization_bits,
    run_injection,
    run_selftest,
)
from repro.testing.differential import ENGINES
from repro.testing.selftest import INJECTIONS, _base_scenario


class TestConfigWiring:
    def test_invariants_value_is_validated(self):
        with pytest.raises(ConfigurationError):
            SNAPConfig(invariants="lenient")

    def test_off_builds_no_monitor(self):
        trainer = _base_scenario().build_trainer("reference")
        assert trainer.monitor is None

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_strict_builds_and_runs_monitor(self, engine):
        trainer = _base_scenario().build_trainer(engine, invariants="strict")
        assert isinstance(trainer.monitor, InvariantMonitor)
        trainer.run(stop_on_convergence=False)
        summary = trainer.monitor.summary()
        # Every built-in invariant ran, once per round (or once at start).
        assert summary["weight-stochasticity"] == 1
        assert summary["weight-spectrum"] == 1
        rounds = trainer.rounds_completed
        for per_round in (
            "ape-budget",
            "byte-ledger",
            "error-feedback",
            "consensus-envelope",
        ):
            assert summary[per_round] == rounds

    def test_monitored_run_matches_unmonitored_digest(self):
        """Arming the monitors must not perturb the trajectory."""
        from repro.testing import capture_run

        scenario = _base_scenario()
        plain = capture_run(scenario.build_trainer("reference"))
        watched = capture_run(
            scenario.build_trainer("reference", invariants="strict")
        )
        assert plain == watched


class TestSelfTestInjections:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(INJECTIONS))
    def test_each_injection_is_caught_by_its_invariant(self, name, engine):
        outcome = run_injection(name, engine=engine)
        assert outcome.caught, outcome.diagnostic
        assert outcome.expected_invariant in outcome.diagnostic

    def test_selftest_runs_every_injection(self):
        outcomes = run_selftest()
        assert {(o.injection, o.engine) for o in outcomes} == {
            (name, engine) for name in INJECTIONS for engine in ENGINES
        }
        assert all(o.caught for o in outcomes)

    def test_violation_carries_invariant_and_round(self):
        trainer = _base_scenario().build_trainer("reference", invariants="strict")
        INJECTIONS["ledger"][0](trainer)
        with pytest.raises(InvariantViolation) as excinfo:
            trainer.run(stop_on_convergence=False)
        assert excinfo.value.invariant == "byte-ledger"
        assert excinfo.value.round_index == 1


class TestErrorFeedbackIdentity:
    @pytest.mark.parametrize("engine", ["reference", "semisync"])
    def test_a_perturbed_last_sent_row_is_caught(self, engine):
        """A round observer moves server 0's ``last_sent`` record for
        neighbor 1 off the view server 1 holds, so the reference-tracking
        identity breaks. The vectorized engine keeps both sides in one
        storage, so only the per-edge engines can be broken this way."""
        trainer = _base_scenario().build_trainer(engine, invariants="strict")

        def perturb(record) -> None:
            trainer.servers[0].last_sent[1][0] += 1.0

        trainer.add_round_observer(perturb)
        with pytest.raises(InvariantViolation) as excinfo:
            trainer.run(stop_on_convergence=False)
        assert excinfo.value.invariant == "error-feedback"
        assert excinfo.value.round_index == 1
        assert "last_sent[0->1]" in str(excinfo.value)


class TestCustomChecks:
    def test_add_check_runs_every_round_and_can_violate(self):
        trainer = _base_scenario().build_trainer("reference", invariants="strict")
        seen = []

        def spy(monitor, record, down):
            seen.append(record.round_index)

        trainer.monitor.add_check("spy", spy)
        trainer.run(stop_on_convergence=False)
        assert seen == list(range(1, trainer.rounds_completed + 1))
        assert trainer.monitor.summary()["spy"] == len(seen)

        fresh = _base_scenario().build_trainer("reference", invariants="strict")
        fresh.monitor.add_check(
            "always-fails",
            lambda monitor, record, down: monitor.violate(
                "always-fails", "synthetic", record.round_index
            ),
        )
        with pytest.raises(InvariantViolation) as excinfo:
            fresh.run(stop_on_convergence=False)
        assert excinfo.value.invariant == "always-fails"


class TestFrameSizeOracle:
    def test_feasible_sizes_cover_every_suppression_count(self):
        sizes = feasible_frame_sizes(5, None)
        # d=5: M=0..1 UNCHANGED (44, 40), M=2..5 INDEX_VALUE (36, 24, 12, 0).
        assert sizes == frozenset({44, 40, 36, 24, 12, 0})

    def test_quantized_widths_extend_the_lattice(self):
        classic = feasible_frame_sizes(5, None)
        extended = feasible_frame_sizes(5, 2)
        assert classic <= extended

    def test_quantization_bits_reads_the_spec(self):
        from repro.compression.spec import CompressorSpec

        assert quantization_bits(CompressorSpec.parse("uniform:bits=6")) == 6
        assert quantization_bits(CompressorSpec.parse("terngrad")) == 2
        assert quantization_bits(CompressorSpec.parse("topk:k=3")) is None
        assert quantization_bits(CompressorSpec.parse("ape")) is None


#: The two forms a trainer's W takes; the monitor checks both on one CSR path.
LAYOUTS = pytest.mark.parametrize(
    "layout", [np.asarray, csr_matrix], ids=["dense", "sparse"]
)


class TestWeightChecks:
    @LAYOUTS
    def test_asymmetric_matrix_rejected_at_run_start(self, layout):
        trainer = _base_scenario().build_trainer("reference", invariants="strict")
        trainer.weight_matrix[2, 3] += 1e-3
        trainer.weight_matrix = layout(trainer.weight_matrix)
        with pytest.raises(InvariantViolation) as excinfo:
            trainer.run(stop_on_convergence=False)
        assert excinfo.value.invariant == "weight-stochasticity"
        assert "not symmetric" in str(excinfo.value)

    @LAYOUTS
    def test_off_support_weight_rejected(self, layout):
        trainer = _base_scenario().build_trainer("reference", invariants="strict")
        n = trainer.topology.n_nodes
        # Move weight onto a non-edge symmetrically, keeping row sums intact
        # so only the support check can catch it.
        u, v = 0, 3
        assert v not in trainer.topology.neighbors(u)
        w = trainer.weight_matrix
        shift = 0.01
        w[u, v] += shift
        w[v, u] += shift
        w[u, u] -= shift
        w[v, v] -= shift
        assert np.allclose(w.sum(axis=1), np.ones(n))
        trainer.weight_matrix = layout(w)
        with pytest.raises(InvariantViolation) as excinfo:
            trainer.run(stop_on_convergence=False)
        assert excinfo.value.invariant == "weight-stochasticity"
        assert "W[0, 3] = 1.000e-02 but (0, 3) is not an edge" in str(excinfo.value)

    @LAYOUTS
    def test_spectrum_gap_check_catches_disconnected_mixing(self, layout):
        trainer = _base_scenario().build_trainer("reference", invariants="strict")
        monitor = trainer.monitor
        # Identity mixing is symmetric doubly stochastic but has no spectral
        # gap: consensus cannot contract.
        trainer.weight_matrix = layout(np.eye(trainer.topology.n_nodes))
        with pytest.raises(InvariantViolation) as excinfo:
            monitor.on_run_start()
        assert excinfo.value.invariant == "weight-spectrum"


class TestConsensusEnvelope:
    def test_divergence_is_flagged_at_its_round(self):
        trainer = _base_scenario().build_trainer("reference", invariants="strict")

        # The monitor runs before the on_round observer each round, so a
        # kick injected at the end of round 4 (past the 3-round warmup)
        # surfaces as a consensus blow-up checked at round 5.
        def kick(record):
            if record.round_index == 4:
                trainer.servers[0].params = trainer.servers[0].params + 1e9

        with pytest.raises(InvariantViolation) as excinfo:
            trainer.run(stop_on_convergence=False, on_round=kick)
        assert excinfo.value.invariant == "consensus-envelope"
        assert excinfo.value.round_index == 5


class TestStrictRoundCallCount:
    """The strict monitor reads engine columns: a count, not a clock."""

    @staticmethod
    def _python_calls_per_round(degree: int, compressor: str) -> float:
        """Python calls one strict vectorized round makes at N=64, ``degree``.

        Counted with ``sys.setprofile`` ("call" events; numpy kernels are C
        and do not count) as the slope between a 3-round and a 13-round
        ``run()``, so per-run set-up cancels.
        """
        from repro.core.trainer import SNAPTrainer
        from repro.data.dataset import Dataset
        from repro.models.logistic import LogisticRegression
        from repro.topology.generators import random_regular_topology

        rng = np.random.default_rng(42)
        shards = []
        for _ in range(64):
            X = rng.normal(size=(30, 10))
            shards.append(Dataset(X, (X @ rng.normal(size=10) > 0).astype(float)))
        trainer = SNAPTrainer(
            LogisticRegression(10),
            shards,
            random_regular_topology(64, degree=degree, seed=3),
            SNAPConfig(
                engine="vectorized",
                compressor=compressor,
                seed=7,
                optimize_weights=False,
                invariants="strict",
            ),
        )

        def count(rounds: int) -> int:
            calls = 0

            def on_event(frame, event, arg):
                nonlocal calls
                if event == "call":
                    calls += 1

            sys.setprofile(on_event)
            try:
                trainer.run(max_rounds=rounds, stop_on_convergence=False)
            finally:
                sys.setprofile(None)
            return calls

        trainer.run(max_rounds=1, stop_on_convergence=False)  # warm-up
        return (count(13) - count(3)) / 10

    @pytest.mark.parametrize("compressor", ["ape", "topk:k=4"])
    def test_strict_round_does_not_walk_the_edges(self, compressor):
        """Doubling the degree at N=64 doubles the directed edges (256 ->
        512). A per-edge check (an ``np.array_equal`` per edge) or a
        per-edge write-back for the monitor adds at least one call per edge,
        256 per round; the columnar checks add none."""
        four, eight = (
            self._python_calls_per_round(degree, compressor) for degree in (4, 8)
        )
        assert eight <= four + 25, (
            f"a strict vectorized {compressor} round made {four:.0f} Python "
            f"calls at degree 4 and {eight:.0f} at degree 8 (N=64): the "
            "monitor walks the edges"
        )
