"""Centralized full-batch training — the paper's accuracy baseline.

"Centralized training. This is the baseline to evaluate the accuracy of each
scheme" (Section V). All shards are concatenated and plain gradient descent
runs on the union. No iteration traffic is charged; for reference, the
one-time cost of shipping the raw data to a central site (what SNAP exists to
avoid) is reported in ``info["raw_data_upload_bytes"]``.
"""

from __future__ import annotations

import numpy as np

from repro.consensus.convergence import ConvergenceDetector
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.models.base import Model
from repro.models.metrics import accuracy_score
from repro.network.frames import FLOAT_BYTES
from repro.results import RoundRecord, TrainingResult
from repro.types import Params
from repro.utils.validation import check_fraction, check_positive_int


class CentralizedTrainer:
    """Full-batch gradient descent on the concatenation of all shards.

    Parameters
    ----------
    model:
        The shared model object.
    shards:
        The per-server datasets; concatenated internally.
    alpha:
        Step size; ``None`` selects ``safety * 2 / L_f`` from the model's
        Lipschitz bound on the combined data.
    step_safety:
        Fraction of the ``2 / L_f`` cap used by the automatic step size.
    initial_params:
        Starting point; defaults to ``model.init_params(seed)``.
    seed:
        Seed for the default initialization.
    """

    def __init__(
        self,
        model: Model,
        shards: list[Dataset],
        alpha: float | None = None,
        step_safety: float = 0.5,
        initial_params: Params | None = None,
        seed: int | None = None,
    ):
        if not shards:
            raise ConfigurationError("need at least one shard")
        self.model = model
        self.X = np.concatenate([shard.X for shard in shards])
        self.y = np.concatenate([shard.y for shard in shards])
        (lipschitz,) = model.lipschitz_bounds([self.X])
        if alpha is None:
            check_fraction("step_safety", step_safety)
            alpha = step_safety * 2.0 / lipschitz
        if alpha <= 0:
            raise ConfigurationError(f"alpha must be > 0, got {alpha}")
        self.alpha = float(alpha)
        if initial_params is None:
            initial_params = model.init_params(seed)
        self.params = model.check_params(initial_params).copy()
        #: One-time cost of shipping all raw features+labels to a data center.
        self.raw_data_upload_bytes = FLOAT_BYTES * int(self.X.size + self.y.size)

    def run(
        self,
        max_rounds: int = 500,
        detector: ConvergenceDetector | None = None,
        test_set: Dataset | None = None,
        eval_every: int = 0,
        stop_on_convergence: bool = True,
    ) -> TrainingResult:
        """Run gradient descent; returns a :class:`TrainingResult` with zero traffic."""
        check_positive_int("max_rounds", max_rounds)
        if detector is None:
            detector = ConvergenceDetector()
        records: list[RoundRecord] = []
        for round_index in range(1, max_rounds + 1):
            gradient = self.model.gradient(self.params, self.X, self.y)
            self.params = self.params - self.alpha * gradient
            loss = self.model.loss(self.params, self.X, self.y)
            accuracy = None
            if test_set is not None and eval_every > 0 and round_index % eval_every == 0:
                accuracy = self._evaluate(test_set)
            records.append(
                RoundRecord(
                    round_index=round_index,
                    mean_loss=loss,
                    consensus_error=0.0,
                    bytes_sent=0,
                    cost=0,
                    params_sent=0,
                    accuracy=accuracy,
                )
            )
            if detector.observe(loss, 0.0) and stop_on_convergence:
                break
        final_accuracy = self._evaluate(test_set) if test_set is not None else None
        return TrainingResult(
            scheme="centralized",
            rounds=records,
            converged_at=detector.converged_at,
            final_params=self.params.copy(),
            total_bytes=0,
            total_cost=0,
            final_accuracy=final_accuracy,
            info={
                "alpha": self.alpha,
                "raw_data_upload_bytes": self.raw_data_upload_bytes,
            },
        )

    def _evaluate(self, test_set: Dataset) -> float:
        predictions = self.model.predict(self.params, test_set.X)
        return accuracy_score(test_set.y, predictions)
