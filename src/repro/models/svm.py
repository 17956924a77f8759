"""Linear SVM with smooth (squared) hinge loss.

This is the simulation model of the paper's Section V-B: the credit-default
data has 24 features, "accordingly, there are only 24 parameters in each SVM
model" (we additionally learn an intercept unless ``fit_intercept=False``).
The *squared* hinge makes the loss continuously differentiable, so EXTRA's
smooth-convex convergence theory (Theorem 1) applies exactly.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError
from repro.models.base import Model, add_bias_column
from repro.types import Params
from repro.utils.validation import check_non_negative, check_positive_int


class LinearSVM(Model):
    """Binary linear SVM minimizing mean squared hinge loss plus L2 penalty.

    .. math::

        f(w) = \\frac{1}{n} \\sum_i \\max(0,\\, 1 - y_i\\, w^T x_i)^2
               + \\frac{\\lambda}{2} \\|w\\|^2

    Labels may be given as ``{-1, +1}`` or ``{0, 1}``; the latter is mapped to
    the former internally. Predictions are returned in ``{-1, +1}``.

    Parameters
    ----------
    n_features:
        Input dimensionality (24 for the paper's credit-default workload).
    regularization:
        L2 coefficient λ (strictly improves conditioning; 0 allowed).
    fit_intercept:
        When true, an extra bias parameter is appended (not regularized
        separately — it shares the L2 term, which keeps the gradient simple
        and the objective strongly convex when λ > 0).

    The squared hinge has curvature 2, so ``L_f <= 2 σ_max(X̃)² / n + λ``.
    """

    curvature = (2.0, 1.0)

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

    @staticmethod
    def _signed_labels(y: np.ndarray) -> np.ndarray:
        """Map labels to {-1, +1}, accepting {0, 1} or {-1, +1} input."""
        y = np.asarray(y, dtype=float)
        unique = np.unique(y)
        if np.all(np.isin(unique, (-1.0, 1.0))):
            return y
        if np.all(np.isin(unique, (0.0, 1.0))):
            return 2.0 * y - 1.0
        raise DataError(
            f"labels must be in {{-1,+1}} or {{0,1}}, got values {unique[:5]}"
        )

    def loss(self, params: Params, X: np.ndarray, y: np.ndarray) -> float:
        params = self.check_params(params)
        return self._loss_impl(params, *self._prepare_shard(X, y))

    def _loss_impl(
        self, params: Params, design: np.ndarray, signed: np.ndarray
    ) -> float:
        margins = signed * (design @ params)
        hinge = np.maximum(0.0, 1.0 - margins)
        squared = hinge**2
        # np.mean without its Python wrapper (docs/PERFORMANCE.md identity 17).
        data_term = float(np.add.reduce(squared) / squared.size)
        reg_term = 0.5 * self.regularization * float(params @ params)
        return data_term + reg_term

    def gradient(self, params: Params, X: np.ndarray, y: np.ndarray) -> Params:
        params = self.check_params(params)
        return self._gradient_impl(params, *self._prepare_shard(X, y))

    def _gradient_impl(
        self, params: Params, design: np.ndarray, signed: np.ndarray
    ) -> Params:
        margins = signed * (design @ params)
        hinge = np.maximum(0.0, 1.0 - margins)
        # d/dw mean(hinge^2) = mean(2 * hinge * (-y x))
        coefficients = -2.0 * hinge * signed / design.shape[0]
        grad = design.T @ coefficients
        grad += self.regularization * params
        return grad

    def _prepare_shard(self, X: np.ndarray, y: np.ndarray) -> tuple:
        """``(design, signed labels)``: all that loss / gradient derive from a shard.

        The batch checks, the label convention and the bias column are
        settled here, once, in the order :meth:`loss` settles them.
        """
        X, y = self.check_batch(X, y)
        signed = self._signed_labels(y)
        return self._design(X), signed

    def decision_function(self, params: Params, X: np.ndarray) -> np.ndarray:
        """Raw margins ``w^T x (+ b)``."""
        params = self.check_params(params)
        X = np.asarray(X, dtype=float)
        return self._design(X) @ params

    def predict(self, params: Params, X: np.ndarray) -> np.ndarray:
        """Labels in ``{-1, +1}`` (zero margins break toward +1)."""
        margins = self.decision_function(params, X)
        return np.where(margins >= 0.0, 1.0, -1.0)
