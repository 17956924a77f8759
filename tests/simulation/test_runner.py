"""Tests for repro.simulation.runner."""

import numpy as np
import pytest

from repro.core.config import SNAPConfig
from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan
from repro.simulation.experiments import credit_svm_workload
from repro.simulation.runner import (
    SCHEMES,
    reference_target_loss,
    run_comparison,
    run_scheme,
)
from repro.topology.failures import IndependentLinkFailures


@pytest.fixture(scope="module")
def workload():
    return credit_svm_workload(
        n_servers=6, average_degree=3, n_train=600, n_test=150, seed=2
    )


class TestRunScheme:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_runs(self, workload, scheme):
        result = run_scheme(scheme, workload, max_rounds=15)
        assert result.scheme == scheme
        assert result.n_rounds <= 15
        assert result.final_accuracy is not None
        assert np.all(np.isfinite(result.final_params))

    def test_unknown_scheme_rejected(self, workload):
        with pytest.raises(ConfigurationError):
            run_scheme("sgd", workload)

    def test_all_schemes_share_initialization(self, workload):
        """Scheme comparisons are run from identical initial parameters."""
        snap = run_scheme("snap0", workload, max_rounds=1, stop_on_convergence=False)
        central = run_scheme(
            "centralized", workload, max_rounds=1, stop_on_convergence=False
        )
        # after 1 round both moved from the same x0; their distance is small
        assert (
            np.linalg.norm(snap.final_params - central.final_params)
            < np.linalg.norm(central.final_params) + 1.0
        )

    def test_explicit_alpha_propagates(self, workload):
        result = run_scheme(
            "snap0", workload, max_rounds=3, alpha=0.01, stop_on_convergence=False
        )
        assert result.info["alpha"] == 0.01
        result = run_scheme(
            "centralized", workload, max_rounds=3, alpha=0.01, stop_on_convergence=False
        )
        assert result.info["alpha"] == 0.01

    def test_snap_config_override(self, workload):
        config = SNAPConfig(ape_initial_fraction=0.5, max_rounds=5)
        result = run_scheme(
            "snap", workload, max_rounds=5, snap_config=config,
            stop_on_convergence=False,
        )
        assert result.scheme == "snap"

    def test_failure_model_reaches_snap(self, workload):
        # 10 rounds of total link loss legitimately trips the trainer's
        # sustained-partition warning; this test is about byte accounting.
        with pytest.warns(RuntimeWarning, match="partitioned"):
            result = run_scheme(
                "snap",
                workload,
                max_rounds=10,
                fault_plan=FaultPlan(links=IndependentLinkFailures(1.0, seed=0)),
                stop_on_convergence=False,
            )
        # all links always down -> no traffic at all
        assert result.total_bytes == 0

    def test_optimize_weights_toggle(self, workload):
        optimized = run_scheme(
            "snap0", workload, max_rounds=2, stop_on_convergence=False
        )
        baseline = run_scheme(
            "snap0",
            workload,
            max_rounds=2,
            optimize_weights=False,
            stop_on_convergence=False,
        )
        assert baseline.info["weight_problem"] == "metropolis"
        assert optimized.info["weight_problem"] != "metropolis"

    def test_snap_config_decides_optimize_weights(self, workload):
        config = SNAPConfig(optimize_weights=False, max_rounds=2)
        result = run_scheme(
            "snap", workload, snap_config=config, stop_on_convergence=False
        )
        assert result.info["weight_problem"] == "metropolis"

    def test_optimize_weights_contradicting_snap_config_is_refused(self, workload):
        config = SNAPConfig(optimize_weights=False, max_rounds=2)
        with pytest.raises(ConfigurationError, match="optimize_weights"):
            run_scheme("snap", workload, optimize_weights=True, snap_config=config)

    def test_snap_config_seed_defaults_to_the_workload_seed(self, workload):
        """The per-edge generators of a random compressor draw from the
        workload's seed when the config names none."""

        def final_params(seed):
            config = SNAPConfig(compressor="randomk:k=4", seed=seed)
            return run_scheme(
                "snap", workload, max_rounds=5, snap_config=config,
                stop_on_convergence=False,
            ).final_params

        np.testing.assert_array_equal(final_params(None), final_params(workload.seed))

    def test_snap_config_seed_contradicting_the_workload_is_refused(self, workload):
        config = SNAPConfig(seed=workload.seed + 1, max_rounds=2)
        with pytest.raises(ConfigurationError, match="seed"):
            run_scheme("snap", workload, snap_config=config)

    @pytest.mark.parametrize("scheme", ["snap0", "sno"])
    def test_non_preset_compressor_runs_only_with_snap(self, workload, scheme):
        config = SNAPConfig(compressor="topk:k=4", max_rounds=2)
        with pytest.raises(ConfigurationError, match="only with scheme 'snap'"):
            run_scheme(scheme, workload, snap_config=config)
        result = run_scheme(
            "snap", workload, snap_config=config, stop_on_convergence=False
        )
        assert result.scheme == "snap+topk(k=4)"


class TestRunComparison:
    def test_runs_selected_schemes(self, workload):
        results = run_comparison(
            workload, schemes=("centralized", "snap0"), max_rounds=5,
            stop_on_convergence=False,
        )
        assert set(results) == {"centralized", "snap0"}


class TestReferenceTargetLoss:
    def test_target_is_above_optimum(self, workload):
        target = reference_target_loss(workload, margin=0.05, max_rounds=400)
        tight = reference_target_loss(workload, margin=0.0, max_rounds=400)
        assert target == pytest.approx(tight * 1.05)

    def test_schemes_reach_the_target(self, workload):
        target = reference_target_loss(workload, margin=0.05, max_rounds=400)
        result = run_scheme(
            "snap0",
            workload,
            max_rounds=400,
            detector_kwargs={"target_loss": target},
        )
        assert result.converged_at is not None

    def test_negative_margin_rejected(self, workload):
        with pytest.raises(ConfigurationError):
            reference_target_loss(workload, margin=-0.1)
