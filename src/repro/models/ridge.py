"""Ridge regression — a quadratic objective with a closed-form optimum.

Not used by the paper directly, but invaluable for testing the consensus
engines: the global optimum is computable exactly, so tests can assert that
EXTRA converges to it rather than merely "somewhere with a small gradient".
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError
from repro.models.base import Model, add_bias_column
from repro.types import Params
from repro.utils.validation import check_non_negative, check_positive_int


class RidgeRegression(Model):
    """Mean squared error plus L2 penalty.

    .. math::

        f(w) = \\frac{1}{2n} \\|Xw - y\\|^2 + \\frac{\\lambda}{2} \\|w\\|^2

    The bound ``L_f = σ_max(X̃)² / n + λ`` is exact for this quadratic.
    """

    curvature = (1.0, 1.0)

    def __init__(
        self,
        n_features: int,
        regularization: float = 1e-3,
        fit_intercept: bool = True,
    ):
        self.n_features = check_positive_int("n_features", n_features)
        self.regularization = check_non_negative("regularization", regularization)
        self.fit_intercept = bool(fit_intercept)

    @property
    def n_params(self) -> int:
        return self.n_features + (1 if self.fit_intercept else 0)

    def _design(self, X: np.ndarray) -> np.ndarray:
        if X.shape[-1] != self.n_features:
            raise DataError(
                f"X has {X.shape[-1]} features, model expects {self.n_features}"
            )
        return add_bias_column(X) if self.fit_intercept else X

    def loss(self, params: Params, X: np.ndarray, y: np.ndarray) -> float:
        params = self.check_params(params)
        return self._loss_impl(params, *self._prepare_shard(X, y))

    def _loss_impl(
        self, params: Params, design: np.ndarray, targets: np.ndarray
    ) -> float:
        residual = design @ params - targets
        data_term = 0.5 * float(residual @ residual) / design.shape[0]
        return data_term + 0.5 * self.regularization * float(params @ params)

    def gradient(self, params: Params, X: np.ndarray, y: np.ndarray) -> Params:
        params = self.check_params(params)
        return self._gradient_impl(params, *self._prepare_shard(X, y))

    def _gradient_impl(
        self, params: Params, design: np.ndarray, targets: np.ndarray
    ) -> Params:
        residual = design @ params - targets
        return design.T @ residual / design.shape[0] + self.regularization * params

    def _prepare_shard(self, X: np.ndarray, y: np.ndarray) -> tuple:
        """``(design, float targets)``: all that loss / gradient derive from a shard."""
        X, y = self.check_batch(X, y)
        return self._design(X), np.asarray(y, dtype=float)

    def predict(self, params: Params, X: np.ndarray) -> np.ndarray:
        """Real-valued predictions ``Xw (+ b)``."""
        params = self.check_params(params)
        X = np.asarray(X, dtype=float)
        return self._design(X) @ params

    def solve_exact(self, X: np.ndarray, y: np.ndarray) -> Params:
        """Closed-form global minimizer ``(X^T X / n + λI)^{-1} X^T y / n``.

        Useful as ground truth in convergence tests; also the optimum of the
        *aggregate* objective when all shards are concatenated, because ridge
        losses over shards add up to the ridge loss over the union (with
        per-shard weights equal to shard sizes).
        """
        X, y = self.check_batch(X, y)
        design = self._design(X)
        n = design.shape[0]
        gram = design.T @ design / n + self.regularization * np.eye(self.n_params)
        rhs = design.T @ np.asarray(y, dtype=float) / n
        return np.linalg.solve(gram, rhs)
