"""Multiclass softmax (multinomial logistic) regression."""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError
from repro.models.base import Model, add_bias_column
from repro.types import Params
from repro.utils.validation import check_non_negative, check_positive_int


class SoftmaxRegression(Model):
    """Linear multiclass classifier with cross-entropy loss and L2 penalty.

    Parameters are the flattened ``(n_features (+1), n_classes)`` weight
    matrix. Labels are integer class indices ``0 .. n_classes-1``. The
    softmax Hessian blocks are bounded by 1/2, so
    ``L_f <= σ_max(X̃)² / (2n) + λ``.
    """

    curvature = (1.0, 2.0)

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        regularization: float = 1e-3,
        fit_intercept: bool = True,
    ):
        self.n_features = check_positive_int("n_features", n_features)
        self.n_classes = check_positive_int("n_classes", n_classes)
        if n_classes < 2:
            raise DataError(f"n_classes must be >= 2, got {n_classes}")
        self.regularization = check_non_negative("regularization", regularization)
        self.fit_intercept = bool(fit_intercept)

    @property
    def n_inputs(self) -> int:
        """Rows of the weight matrix (features plus optional bias)."""
        return self.n_features + (1 if self.fit_intercept else 0)

    @property
    def n_params(self) -> int:
        return self.n_inputs * self.n_classes

    def _design(self, X: np.ndarray) -> np.ndarray:
        if X.shape[-1] != self.n_features:
            raise DataError(
                f"X has {X.shape[-1]} features, model expects {self.n_features}"
            )
        return add_bias_column(X) if self.fit_intercept else X

    def _unflatten(self, params: Params) -> np.ndarray:
        return params.reshape(self.n_inputs, self.n_classes)

    def _check_labels(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        labels = y.astype(np.int64)
        if not np.array_equal(labels, y):
            raise DataError("labels must be integers")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise DataError(
                f"labels must lie in 0..{self.n_classes - 1}, got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        return labels

    def _log_softmax(self, logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def loss(self, params: Params, X: np.ndarray, y: np.ndarray) -> float:
        params = self.check_params(params)
        X, y = self.check_batch(X, y)
        labels = self._check_labels(y)
        return self._loss_impl(params, self._design(X), labels)

    def _loss_impl(
        self, params: Params, design: np.ndarray, labels: np.ndarray
    ) -> float:
        logits = design @ self._unflatten(params)
        log_probs = self._log_softmax(logits)
        data_term = -float(np.mean(log_probs[np.arange(len(labels)), labels]))
        return data_term + 0.5 * self.regularization * float(params @ params)

    def gradient(self, params: Params, X: np.ndarray, y: np.ndarray) -> Params:
        params = self.check_params(params)
        X, y = self.check_batch(X, y)
        labels = self._check_labels(y)
        return self._gradient_impl(params, self._design(X), labels)

    def _gradient_impl(
        self, params: Params, design: np.ndarray, labels: np.ndarray
    ) -> Params:
        logits = design @ self._unflatten(params)
        probs = np.exp(self._log_softmax(logits))
        probs[np.arange(len(labels)), labels] -= 1.0
        grad = design.T @ probs / design.shape[0]
        return grad.reshape(-1) + self.regularization * params

    def _prepare_shard(self, X: np.ndarray, y: np.ndarray) -> tuple:
        """``(contiguous design, integer labels)`` of one validated shard."""
        X, y = self.check_batch(X, y)
        labels = self._check_labels(y)
        return np.ascontiguousarray(self._design(X)), labels

    def predict_proba(self, params: Params, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix of shape ``(n_samples, n_classes)``."""
        params = self.check_params(params)
        X = np.asarray(X, dtype=float)
        logits = self._design(X) @ self._unflatten(params)
        return np.exp(self._log_softmax(logits))

    def predict(self, params: Params, X: np.ndarray) -> np.ndarray:
        """Integer class predictions (argmax probability)."""
        return self.predict_proba(params, X).argmax(axis=1)
