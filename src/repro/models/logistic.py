"""Binary logistic regression with L2 regularization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError
from repro.models.base import Model, add_bias_column
from repro.types import Params
from repro.utils.validation import check_non_negative, check_positive_int


class LogisticRegression(Model):
    """Mean negative log-likelihood of a Bernoulli model plus L2 penalty.

    .. math::

        f(w) = \\frac{1}{n} \\sum_i \\log(1 + e^{-y_i w^T x_i})
               + \\frac{\\lambda}{2}\\|w\\|^2

    Labels accepted in ``{0, 1}`` or ``{-1, +1}``; predictions in ``{0, 1}``.
    The logistic curvature is at most 1/4, so ``L_f <= σ_max(X̃)² / (4n) + λ``.
    """

    curvature = (1.0, 4.0)

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

    def _design(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The design matrix of ``X`` (bias column last), written to ``out`` if given."""
        if X.shape[-1] != self.n_features:
            raise DataError(
                f"X has {X.shape[-1]} features, model expects {self.n_features}"
            )
        if out is None:
            return add_bias_column(X) if self.fit_intercept else X
        out[..., : self.n_features] = X
        if self.fit_intercept:
            out[..., self.n_features] = 1.0
        return out

    @staticmethod
    def _signed_labels(y: np.ndarray) -> np.ndarray:
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
        X, y = self.check_batch(X, y)
        signed = self._signed_labels(y)
        margins = signed * (self._design(X) @ params)
        # log(1 + exp(-m)) computed stably via logaddexp(0, -m).
        data_term = float(np.mean(np.logaddexp(0.0, -margins)))
        return data_term + 0.5 * self.regularization * float(params @ params)

    def gradient(self, params: Params, X: np.ndarray, y: np.ndarray) -> Params:
        params = self.check_params(params)
        X, y = self.check_batch(X, y)
        signed = self._signed_labels(y)
        design = self._design(X)
        margins = signed * (design @ params)
        # sigmoid(-m) = 1 / (1 + exp(m)), computed stably.
        weights = _stable_sigmoid(-margins)
        coefficients = -(weights * signed) / design.shape[0]
        return design.T @ coefficients + self.regularization * params

    # -- batched multi-shard path (vectorized engine) ---------------------------

    def prepare_shards(self, shards) -> "_PreparedLogisticShards":
        """Cache design matrices and signed labels for all shards at once.

        Equal-sized shards are built straight into one ``(N, n, d)`` design
        tensor and one ``(N, n)`` label matrix — no per-shard copy exists
        beside them — and the labels are validated and signed on that matrix,
        each row with the outcome :meth:`_signed_labels` gives its shard.
        """
        checked = [self.check_batch(X, y) for X, y in shards]
        sizes = {X.shape[0] for X, _ in checked}
        if len(sizes) != 1:
            return _PreparedLogisticShards(
                designs=tuple(
                    np.ascontiguousarray(self._design(X)) for X, _ in checked
                ),
                signed=tuple(self._signed_labels(y) for _, y in checked),
                design_stack=None,
                signed_stack=None,
            )
        design_stack = np.empty((len(checked), sizes.pop(), self.n_params))
        signed_stack = np.empty(design_stack.shape[:2])
        for i, (X, y) in enumerate(checked):
            self._design(X, out=design_stack[i])
            signed_stack[i] = y
        is_one = signed_stack == 1.0
        signed_rows = (is_one | (signed_stack == -1.0)).all(axis=1)
        binary_rows = (is_one | (signed_stack == 0.0)).all(axis=1) & ~signed_rows
        bad_rows = ~(signed_rows | binary_rows)
        if bad_rows.any():
            # Raises, with the first malformed shard's values in the message.
            self._signed_labels(checked[int(bad_rows.argmax())][1])
        signed_stack[binary_rows] = 2.0 * signed_stack[binary_rows] - 1.0
        return _PreparedLogisticShards(
            designs=(),
            signed=(),
            design_stack=design_stack,
            signed_stack=signed_stack,
        )

    # The uniform-shard kernels below run every matrix-vector product as one
    # stacked ``np.matmul``: numpy hands each batch item to the same BLAS
    # ``gemv`` / ``dot`` the per-shard ``@`` calls, so row ``i`` is bitwise
    # equal to ``loss`` / ``gradient`` on shard ``i`` (held by
    # tests/models/test_logistic.py with ``array_equal``). ``np.einsum``
    # sums in another order and is *not* equal; do not use it here.

    def _margins_stack(
        self, params_stack: np.ndarray, prepared: "_PreparedLogisticShards"
    ) -> np.ndarray:
        """Per-shard margins ``signed * (design @ params)`` as one (N, n) array."""
        products = np.matmul(prepared.design_stack, params_stack[:, :, None])
        return prepared.signed_stack * products[:, :, 0]

    def batch_losses(
        self,
        params_stack: np.ndarray,
        prepared: "_PreparedLogisticShards",
        forward: dict | None = None,
    ) -> np.ndarray:
        if prepared.design_stack is None:
            return self._batch_losses_loop(params_stack, prepared)
        margins = self._margins_stack(params_stack, prepared)
        if forward is not None:
            forward["margins"] = margins
        data_terms = np.logaddexp(0.0, -margins).mean(axis=1)
        reg_terms = np.matmul(params_stack[:, None, :], params_stack[:, :, None])
        return data_terms + 0.5 * self.regularization * reg_terms[:, 0, 0]

    def batch_gradients(
        self,
        params_stack: np.ndarray,
        prepared: "_PreparedLogisticShards",
        forward: dict | None = None,
    ) -> np.ndarray:
        if prepared.design_stack is None:
            return self._batch_gradients_loop(params_stack, prepared)
        margins = None if forward is None else forward.get("margins")
        if margins is None:
            margins = self._margins_stack(params_stack, prepared)
        weights = _stable_sigmoid(-margins)
        coefficients = -(weights * prepared.signed_stack) / margins.shape[1]
        # c^T X per shard: the same gemv as the per-shard ``design.T @ c``.
        gradients = np.matmul(coefficients[:, None, :], prepared.design_stack)[:, 0]
        gradients += self.regularization * params_stack
        return gradients

    def _batch_losses_loop(
        self, params_stack: np.ndarray, prepared: "_PreparedLogisticShards"
    ) -> np.ndarray:
        """Unequal shard sizes: per-shard evaluation on the cached designs."""
        losses = np.empty(len(prepared.designs))
        for i, (design, signed) in enumerate(zip(prepared.designs, prepared.signed)):
            margins = signed * (design @ params_stack[i])
            data_term = float(np.mean(np.logaddexp(0.0, -margins)))
            losses[i] = data_term + 0.5 * self.regularization * float(
                params_stack[i] @ params_stack[i]
            )
        return losses

    def _batch_gradients_loop(
        self, params_stack: np.ndarray, prepared: "_PreparedLogisticShards"
    ) -> np.ndarray:
        gradients = np.empty_like(params_stack)
        for i, (design, signed) in enumerate(zip(prepared.designs, prepared.signed)):
            margins = signed * (design @ params_stack[i])
            weights = _stable_sigmoid(-margins)
            coefficients = -(weights * signed) / design.shape[0]
            gradients[i] = (
                design.T @ coefficients + self.regularization * params_stack[i]
            )
        return gradients

    def predict_proba(self, params: Params, X: np.ndarray) -> np.ndarray:
        """P(y = 1 | x) for each row of ``X``."""
        params = self.check_params(params)
        X = np.asarray(X, dtype=float)
        return _stable_sigmoid(self._design(X) @ params)

    def predict(self, params: Params, X: np.ndarray) -> np.ndarray:
        """Labels in ``{0, 1}`` thresholded at probability 0.5."""
        return (self.predict_proba(params, X) >= 0.5).astype(float)


@dataclass(frozen=True)
class _PreparedLogisticShards:
    """Cached shard state for the batched evaluators.

    ``design_stack`` / ``signed_stack`` are the ``(N, n, d)`` design tensor
    and ``(N, n)`` label matrix when every shard has the same sample count
    (the stacked fast path; ``designs`` / ``signed`` are then empty).
    ``None`` means the shards are ragged and the evaluators fall back to a
    per-shard loop over ``designs`` / ``signed``.
    """

    designs: tuple[np.ndarray, ...]
    signed: tuple[np.ndarray, ...]
    design_stack: np.ndarray | None
    signed_stack: np.ndarray | None


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    ``1 / (1 + e^{-z})`` where ``z >= 0`` and ``e^{z} / (1 + e^{z})``
    elsewhere, each element by the same IEEE operations as a masked gather
    of either half would apply to it (docs/PERFORMANCE.md identity 23),
    with ``e = exp(-|z|)`` serving both halves.
    """
    e = np.exp(-np.abs(z))
    denominator = 1.0 + e
    return np.where(z >= 0, 1.0 / denominator, e / denominator)
