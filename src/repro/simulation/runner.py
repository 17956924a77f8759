"""Uniform entry point for running any scheme on any workload.

All schemes share the same initial parameters (derived from the workload's
seed) and the same convergence-detector settings, so cross-scheme numbers —
iterations to converge, total bytes, final accuracy — are apples-to-apples,
matching how the paper's comparison figures are produced.
"""

from __future__ import annotations

import dataclasses

from repro.baselines.centralized import CentralizedTrainer
from repro.baselines.parameter_server import ParameterServerTrainer
from repro.baselines.terngrad import TernGradTrainer
from repro.compression.spec import SCHEME_PRESETS
from repro.consensus.convergence import ConvergenceDetector
from repro.core.config import SNAPConfig
from repro.core.trainer import SNAPTrainer
from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.results import TrainingResult
from repro.simulation.experiments import Workload

#: All scheme labels understood by :func:`run_scheme`, in the paper's order.
SCHEMES = ("centralized", "ps", "terngrad", *SCHEME_PRESETS)


def run_scheme(
    scheme: str,
    workload: Workload,
    max_rounds: int = 300,
    optimize_weights: bool | None = None,
    fault_plan: FaultPlan | None = None,
    detector_kwargs: dict | None = None,
    eval_every: int = 0,
    snap_config: SNAPConfig | None = None,
    stop_on_convergence: bool = True,
    alpha: float | None = None,
) -> TrainingResult:
    """Build and run one scheme on ``workload``.

    Parameters
    ----------
    scheme:
        One of :data:`SCHEMES`.
    workload:
        The model/shards/topology/test-set bundle.
    max_rounds:
        Iteration cap for the run.
    optimize_weights:
        Whether SNAP-family schemes use the Section IV-B optimized weight
        matrix (``False`` = the eq. 24 Metropolis baseline of Fig. 5).
        ``None`` means ``True``, or ``snap_config``'s value when one is
        given; a value that contradicts ``snap_config`` is refused.
    fault_plan:
        Fault injection for SNAP-family schemes (Fig. 9's link outages,
        server outages, corruption). Ignored by the server-based and
        centralized schemes, which the paper evaluates without failures.
    detector_kwargs:
        Overrides for the :class:`ConvergenceDetector` shared by all schemes.
    eval_every:
        Test-accuracy evaluation period (0 = only at the end).
    snap_config:
        Full config override for SNAP-family schemes. A preset
        ``compressor`` is replaced by the one ``scheme`` names
        (:data:`~repro.compression.spec.SCHEME_PRESETS`); any other
        compressor replaces APE selection, so it runs only with ``snap``.
    stop_on_convergence:
        Stop at the detector's first fire (the paper's iteration counting).
    alpha:
        Explicit step size applied to *every* scheme, overriding each
        trainer's automatic choice. Use this for workloads (like the MLP
        testbed) where the automatic Lipschitz heuristic is overly
        conservative, keeping the step size identical across schemes so
        iteration counts stay comparable.
    """
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    detector = ConvergenceDetector(**(detector_kwargs or {}))
    initial_params = workload.model.init_params(workload.seed)
    common = dict(
        max_rounds=max_rounds,
        detector=detector,
        test_set=workload.test_set,
        eval_every=eval_every,
        stop_on_convergence=stop_on_convergence,
    )

    if scheme == "centralized":
        trainer = CentralizedTrainer(
            workload.model,
            workload.shards,
            alpha=alpha,
            initial_params=initial_params,
            seed=workload.seed,
        )
        return trainer.run(**common)
    if scheme == "ps":
        trainer = ParameterServerTrainer(
            workload.model,
            workload.shards,
            workload.topology,
            alpha=alpha,
            initial_params=initial_params,
            seed=workload.seed,
        )
        return trainer.run(**common)
    if scheme == "terngrad":
        trainer = TernGradTrainer(
            workload.model,
            workload.shards,
            workload.topology,
            alpha=alpha,
            initial_params=initial_params,
            seed=workload.seed,
        )
        return trainer.run(**common)

    preset = SCHEME_PRESETS[scheme]
    if snap_config is None:
        config = SNAPConfig(
            compressor=preset,
            optimize_weights=True if optimize_weights is None else optimize_weights,
            max_rounds=max_rounds,
            alpha=alpha,
            seed=workload.seed,
        )
    else:
        if optimize_weights not in (None, snap_config.optimize_weights):
            raise ConfigurationError(
                f"optimize_weights={optimize_weights} contradicts snap_config"
                f".optimize_weights={snap_config.optimize_weights}; with a "
                "snap_config, set it there"
            )
        compressor = snap_config.compressor
        if not compressor.is_preset and scheme != "snap":
            raise ConfigurationError(
                f"compressor {compressor.label!r} replaces SNAP's APE "
                f"selection, so it runs only with scheme 'snap', not {scheme!r}"
            )
        overrides = {"compressor": preset} if compressor.is_preset else {}
        if alpha is not None:
            overrides["alpha"] = alpha
        config = dataclasses.replace(snap_config, **overrides)
    trainer = SNAPTrainer(
        workload.model,
        workload.shards,
        workload.topology,
        config=config,
        fault_plan=fault_plan,
        initial_params=initial_params,
    )
    return trainer.run(**common)


def run_comparison(
    workload: Workload,
    schemes: tuple[str, ...] = SCHEMES,
    **kwargs,
) -> dict[str, TrainingResult]:
    """Run several schemes on the same workload; returns ``{scheme: result}``."""
    return {scheme: run_scheme(scheme, workload, **kwargs) for scheme in schemes}


def reference_target_loss(
    workload: Workload,
    margin: float = 0.02,
    max_rounds: int = 1000,
    alpha: float | None = None,
) -> float:
    """A cross-scheme convergence target from a centralized reference run.

    Trains the centralized baseline to a tight plateau and returns its final
    loss inflated by ``margin``. Feeding the value into
    ``ConvergenceDetector(target_loss=...)`` makes "iterations to converge"
    mean the same thing for every scheme: first iteration whose mean loss
    reaches within ``margin`` of the centrally attainable optimum. Schemes
    that stall above the target (e.g. TernGrad under heavy quantization
    noise) simply never converge within their round budget — which is the
    honest reading of the paper's Fig. 6.
    """
    if margin < 0:
        raise ConfigurationError(f"margin must be >= 0, got {margin}")
    result = run_scheme(
        "centralized",
        workload,
        max_rounds=max_rounds,
        alpha=alpha,
        detector_kwargs={"relative_loss_tolerance": 1e-6, "loss_window": 10},
    )
    return result.rounds[-1].mean_loss * (1.0 + margin)
