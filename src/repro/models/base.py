"""The :class:`Model` interface shared by every trainable model.

A model is a *stateless* description of an objective: parameters live in flat
numpy vectors owned by the caller (each simulated edge server owns its own
copy, per Section II-B of the paper), and the model maps ``(params, X, y)``
to losses, gradients, and predictions. Statelessness is what lets one model
object serve all N servers and all baselines simultaneously.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import DataError
from repro.types import Params, SeedLike
from repro.utils.rng import make_rng


class Model(abc.ABC):
    """Abstract objective: flat parameters -> loss / gradient / predictions."""

    @property
    @abc.abstractmethod
    def n_params(self) -> int:
        """Dimension ``P`` of the flat parameter vector."""

    @abc.abstractmethod
    def loss(self, params: Params, X: np.ndarray, y: np.ndarray) -> float:
        """Mean loss of ``params`` on the batch ``(X, y)`` (regularizer included)."""

    @abc.abstractmethod
    def gradient(self, params: Params, X: np.ndarray, y: np.ndarray) -> Params:
        """Exact gradient of :meth:`loss` with respect to ``params``."""

    @abc.abstractmethod
    def predict(self, params: Params, X: np.ndarray) -> np.ndarray:
        """Predicted labels for ``X``."""

    def init_params(self, seed: SeedLike = None, scale: float = 0.01) -> Params:
        """Small random initial parameter vector.

        A shared default: zero-mean Gaussian entries with standard deviation
        ``scale``. Subclasses may override (the MLP uses per-layer scaling).
        """
        rng = make_rng(seed)
        return rng.normal(0.0, scale, size=self.n_params)

    def gradient_lipschitz_bound(self, X: np.ndarray) -> float:
        """An upper bound on the gradient's Lipschitz constant ``L_f`` on ``X``.

        EXTRA's step-size rule ``α < 2 λ_min(W̃) / L_f`` and SNAP's APE
        schedule (Algorithm 1 takes the second-order bound ``G`` as input)
        both need this. The default — the largest squared singular value of
        the feature matrix over the batch size — is exact for quadratic
        losses and a safe overestimate for the other smooth losses used here.
        Subclasses refine it with their loss curvature constants.
        """
        X = np.asarray(X, dtype=float)
        if X.size == 0:
            return 1.0
        return top_singular_values([X])[0] ** 2 / X.shape[0]

    def lipschitz_bounds(self, Xs) -> list[float]:
        """:meth:`gradient_lipschitz_bound` of every shard in ``Xs``, in order.

        The models in this package override it to decompose all shards in
        one :func:`top_singular_values` call; entry ``i`` is bitwise equal to
        ``gradient_lipschitz_bound(Xs[i])`` either way.
        """
        return [self.gradient_lipschitz_bound(X) for X in Xs]

    # -- prepared-shard API ---------------------------------------------------------
    #
    # A shard is immutable between data swaps, so everything ``loss`` /
    # ``gradient`` derive from ``(X, y)`` alone — validation, design matrices,
    # encoded labels — can be done once: ``prepare_shards`` does it and the
    # batch evaluators consume the result. The vectorized engine prepares all
    # N shards and evaluates them in one call per round; an ``EdgeServer``
    # prepares its own shard on first evaluation. The defaults keep the
    # validated ``(X, y)`` pairs and loop over :meth:`loss` / :meth:`gradient`,
    # which is bit-for-bit identical to N individual calls — subclasses
    # override ``_prepare_shard`` and the ``_impl`` kernels (or the batch
    # evaluators themselves) only where that can be done without changing a
    # single floating point operation's order or operands.

    def prepare_shards(self, shards) -> object:
        """Precompute immutable per-shard state for the batch evaluators.

        ``shards`` is a sequence of ``(X, y)`` pairs (one per server). The
        return value is opaque: pass it back to :meth:`batch_losses` /
        :meth:`batch_gradients` unchanged. A malformed shard raises
        :class:`~repro.exceptions.DataError` here, not at evaluation.
        """
        return tuple(self._prepare_shard(X, y) for X, y in shards)

    def _prepare_shard(self, X: np.ndarray, y: np.ndarray) -> tuple:
        """One validated shard: the ``_impl`` kernels' arguments after ``params``."""
        return self.check_batch(X, y)

    def _loss_impl(self, params: Params, *shard) -> float:
        """:meth:`loss` on one prepared shard."""
        return self.loss(params, *shard)

    def _gradient_impl(self, params: Params, *shard) -> Params:
        """:meth:`gradient` on one prepared shard."""
        return self.gradient(params, *shard)

    def batch_losses(self, params_stack: np.ndarray, prepared) -> np.ndarray:
        """Per-shard losses for stacked parameters ``(N, n_params)`` -> ``(N,)``.

        Row ``i`` equals ``self.loss(params_stack[i], X_i, y_i)`` exactly
        (same floating point operations in the same order).
        """
        losses = np.empty(len(prepared))
        for i, shard in enumerate(prepared):
            losses[i] = self._loss_impl(params_stack[i], *shard)
        return losses

    def batch_gradients(self, params_stack: np.ndarray, prepared) -> np.ndarray:
        """Per-shard gradients, stacked ``(N, n_params)``.

        Row ``i`` equals ``self.gradient(params_stack[i], X_i, y_i)`` exactly.
        """
        gradients = np.empty((len(prepared), self.n_params))
        for i, shard in enumerate(prepared):
            gradients[i] = self._gradient_impl(params_stack[i], *shard)
        return gradients

    def check_batch(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Validate and normalize a batch to float arrays with matching lengths."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise DataError(f"X must be 2-D (n_samples, n_features), got ndim={X.ndim}")
        if y.ndim != 1:
            raise DataError(f"y must be 1-D, got ndim={y.ndim}")
        if X.shape[0] != y.shape[0]:
            raise DataError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} labels"
            )
        if X.shape[0] == 0:
            raise DataError("batch is empty")
        return X, y

    def check_params(self, params: Params) -> Params:
        """Validate the parameter vector's shape and dtype."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.n_params,):
            raise DataError(
                f"params shape {params.shape} does not match n_params={self.n_params}"
            )
        return params


def top_singular_values(Xs, design=None) -> list[float]:
    """``σ_max`` of each 2-D matrix in ``Xs`` — of ``design(X)`` when given.

    Equal-shaped matrices are written one at a time into one ``(N, n, d)``
    tensor and decomposed by one ``np.linalg.svd`` call: the gufunc hands
    each item to the same LAPACK ``gesdd`` that ``np.linalg.norm(X, ord=2)``
    reaches, so every value is bitwise what the per-matrix call returns —
    without its per-call Python wrappers, which outweigh the LAPACK work on
    small shards (``eigvalsh(XᵀX)`` and power iteration are *not* equal;
    docs/PERFORMANCE.md identity 11). Ragged shapes are decomposed one by
    one; ``design`` must map equal shapes to equal shapes. The tensor is the
    only copy made and is freed on return.
    """
    designs = Xs if design is None else map(design, Xs)
    if len({X.shape for X in Xs}) != 1:
        return [float(np.linalg.svd(d, compute_uv=False).max()) for d in designs]
    stack = None
    for i, d in enumerate(designs):
        if stack is None:
            stack = np.empty((len(Xs), *d.shape))
        stack[i] = d
    return np.linalg.svd(stack, compute_uv=False).max(axis=-1).tolist()


def add_bias_column(X: np.ndarray) -> np.ndarray:
    """Append a constant-one column so linear models learn an intercept."""
    return np.hstack([X, np.ones((X.shape[0], 1))])
