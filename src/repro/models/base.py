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

    #: Curvature constants ``(a, b)`` of the bound
    #: ``L_f(X) = a σ_max(D)² / (b n) + λ`` with ``D = self._design(X)``,
    #: ``n`` its rows and ``λ = self.regularization``: the loss's second
    #: derivative is at most ``2a / b``. ``None`` (the default) makes
    #: :meth:`gradient_lipschitz_bound` the only definition of the bound.
    curvature: tuple[float, float] | None = None

    def _design(self, X: np.ndarray) -> np.ndarray:
        """The matrix the curvature bound is taken over: ``X`` unless overridden.

        Overrides map a stack ``(..., n, features)`` item by item, as they
        map one shard.
        """
        return X

    def gradient_lipschitz_bound(self, X: np.ndarray) -> float:
        """An upper bound on the gradient's Lipschitz constant ``L_f`` on ``X``.

        EXTRA's step-size rule ``α < 2 λ_min(W̃) / L_f`` and SNAP's APE
        schedule (Algorithm 1 takes the second-order bound ``G`` as input)
        both need this. With :attr:`curvature` set it is that formula; the
        default — the largest squared singular value of the feature matrix
        over the batch size — is exact for quadratic losses and a safe
        overestimate for the other smooth losses used here.
        """
        X = np.asarray(X, dtype=float)
        if self.curvature is not None:
            return self.lipschitz_bounds([X])[0]
        if X.size == 0:
            return 1.0
        return top_singular_values([X])[0] ** 2 / X.shape[0]

    def lipschitz_bounds(self, Xs) -> list[float]:
        """:meth:`gradient_lipschitz_bound` of every shard in ``Xs``, in order.

        With :attr:`curvature` set, all shards are decomposed in one
        :func:`top_singular_values` call; entry ``i`` is bitwise equal to
        ``gradient_lipschitz_bound(Xs[i])`` either way.
        """
        if self.curvature is None:
            return [self.gradient_lipschitz_bound(X) for X in Xs]
        Xs = [np.asarray(X, dtype=float) for X in Xs]
        return [
            self._curvature_bound(top, X.shape[0])
            for top, X in zip(top_singular_values(Xs, self._design), Xs)
        ]

    def _curvature_bound(self, top: float, n: int) -> float:
        """``a σ² / (b n) + λ`` for ``σ = top``: the one spelling of the bound."""
        a, b = self.curvature
        return a * top**2 / (b * n) + self.regularization

    def lipschitz_bound(self, Xs, scales) -> float:
        """``max_i scales[i] · L_f(Xs[i])``: the largest per-shard bound.

        Bitwise the maximum over :meth:`lipschitz_bounds`. With
        :attr:`curvature` set, only the shards that can reach the maximum
        are decomposed (:func:`screened_lipschitz_max`); an empty shard or
        a non-finite feature value then raises :class:`DataError` naming the
        shard's index before any decomposition.
        """
        if self.curvature is None:
            return max(
                scale * bound for scale, bound in zip(scales, self.lipschitz_bounds(Xs))
            )
        return screened_lipschitz_max(self, Xs, scales)

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


#: Shards decomposed before the rest are screened against them: the power
#: iteration below ranks the largest bound within its top three on
#: ``vec_topk_lossy_n256``. Up to twice as many shards are all decomposed,
#: since the screen's fixed cost outweighs a few small ``gesdd`` calls.
_CANDIDATES = 4
#: Bytes of shards stacked, or of Cholesky factors held, at a time.
_CHUNK_BYTES = 1 << 18
#: Vectors and power steps of the iteration that orders the shards.
_BLOCK, _BLOCK_STEPS = 4, 8


def screened_lipschitz_max(model: Model, Xs, scales) -> float:
    """``max_i scales[i] · model.lipschitz_bounds(Xs)[i]``, bitwise, from few SVDs.

    Every bound ``a σ² / (b n) + λ`` rises with ``σ = σ_max(D)``, so once
    some shards' exact values give a best value ``B``, shard ``i`` can only
    reach ``B`` if ``σ_i² ≥ μ_i = (B / scale_i − λ) b n_i / a``. It is left
    out when ``np.linalg.cholesky((μ_i − m_i) I − G_i)`` succeeds on its Gram
    matrix ``G_i``; the margin ``m_i`` covers the rounding of forming and
    factoring ``G_i``, of ``gesdd`` and of the bound's own arithmetic
    (docs/PERFORMANCE.md identity 13). The maximum is taken over
    :func:`top_singular_values` values only, so it has the bits of the
    exhaustive one. Shards are decomposed in two rounds: the
    :data:`_CANDIDATES` best by a power-iteration estimate of
    ``λ_max(G_i)`` (which decides that order and nothing else), then every
    shard the Cholesky test could not exclude.

    An empty or non-2-D shard, or one holding a non-finite value, raises
    :class:`DataError` with its index before any decomposition.
    """
    Xs = [np.asarray(X, dtype=float) for X in Xs]
    scales = list(scales)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, X in enumerate(Xs):
        if X.ndim != 2 or X.size == 0:
            raise DataError(f"shard {i} is empty or not 2-D (shape {X.shape})", shard=i)
        groups.setdefault(X.shape, []).append(i)

    def exact(indices) -> float:
        tops = top_singular_values([Xs[i] for i in indices], model._design)
        return max(
            scales[i] * model._curvature_bound(top, Xs[i].shape[0])
            for i, top in zip(indices, tops)
        )

    if len(Xs) <= 2 * _CANDIDATES:
        for i, X in enumerate(Xs):
            if not np.isfinite(X).all():
                raise DataError(f"shard {i} holds a non-finite value", shard=i)
        return float(exact(range(len(Xs))))

    rows, columns, trace = (np.empty(len(Xs)) for _ in range(3))
    grams = []
    for (n, _), members in groups.items():
        gram, columns[members] = _gram_stack(model, [Xs[i] for i in members])
        rows[members] = n
        with np.errstate(over="ignore", invalid="ignore"):
            trace[members] = gram.diagonal(axis1=1, axis2=2).sum(axis=1)
        grams.append((members, gram))
    # A NaN or ±inf in X reaches its Gram's diagonal as a sum of squares; a
    # finite shard whose Gram overflows is decomposed, never screened.
    overflow = ~np.isfinite(trace)
    for i in np.flatnonzero(overflow).tolist():
        if not np.isfinite(Xs[i]).all():
            raise DataError(f"shard {i} holds a non-finite value", shard=i)

    a, b = model.curvature
    lam = model.regularization
    scale = np.asarray(scales, dtype=float)
    estimate = np.empty(len(Xs))
    for members, gram in grams:
        gram[overflow[members]] = 0.0
        estimate[members] = _top_eigenvalue_estimates(gram)
    with np.errstate(all="ignore"):
        rough = np.where(overflow, -np.inf, scale * (a * estimate / (b * rows) + lam))
    decomposed = overflow.copy()
    decomposed[np.argsort(-rough, kind="stable")[:_CANDIDATES]] = True
    best = exact(np.flatnonzero(decomposed).tolist())

    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):
        ratio = best / scale
        mu = (ratio - lam) * b * rows / a
        shift = mu - (
            1e-6 * np.abs(mu)
            + 4.0 * (rows + columns) * eps * trace
            + 16.0 * eps * (ratio + lam) * b * rows / a
        )
        testable = ~decomposed & (scale > 0.0) & np.isfinite(shift) & (shift > 0.0)
    excluded = np.zeros(len(Xs), dtype=bool)
    for members, gram in grams:
        test = testable[members]
        if not test.any():
            continue
        # (μ − m) I − G in place: the Gram stack is the only (N, d, d) array.
        diagonal = np.arange(gram.shape[-1])
        np.negative(gram, out=gram)
        gram[:, diagonal, diagonal] += np.where(test, shift[members], 0.0)[:, None]
        gram[~test] = np.eye(gram.shape[-1])
        excluded[members] = test & _positive_definite(gram)
    rest = np.flatnonzero(~decomposed & ~excluded).tolist()
    if rest:
        best = max(best, exact(rest))
    return float(best)


def _gram_stack(model: Model, Xs) -> tuple[np.ndarray, int]:
    """``DᵀD`` of each equal-shaped shard's design (``DDᵀ`` when wide), and ``d``.

    Designs are formed a bounded chunk at a time; the ``(N, k, k)`` stack,
    ``k = min(n, d)``, is the only array whose size grows with ``N``.
    """
    step = max(1, _CHUNK_BYTES // Xs[0].nbytes)
    gram = None
    for start in range(0, len(Xs), step):
        design = model._design(np.stack(Xs[start : start + step]))
        n, d = design.shape[1:]
        if gram is None:
            gram = np.empty((len(Xs), min(n, d), min(n, d)))
        pair = (design.mT, design) if n >= d else (design, design.mT)
        with np.errstate(over="ignore", invalid="ignore"):  # see `overflow`
            np.matmul(*pair, out=gram[start : start + len(design)])
    return gram, d


def _top_eigenvalue_estimates(gram: np.ndarray) -> np.ndarray:
    """Largest Rayleigh quotient of a few power-iterated vectors, per matrix.

    An ordering heuristic: it is neither a lower nor an upper bound once
    rounded, and never reaches a result.
    """
    tiny = np.finfo(float).tiny
    k = gram.shape[-1]
    block = np.random.default_rng(0).standard_normal((k, min(_BLOCK, k)))
    # Powers of G / tr(G) (spectrum in [0, 1]) cannot overflow.
    shrink = 1.0 / (gram.diagonal(axis1=1, axis2=2).sum(axis=1) + tiny)
    for _ in range(_BLOCK_STEPS):
        block = gram @ block
        block *= shrink[:, None, None]
    image = gram @ block
    quotients = (block * image).sum(axis=1) / ((block * block).sum(axis=1) + tiny)
    return quotients.max(axis=1)


def _positive_definite(stack: np.ndarray) -> np.ndarray:
    """Whether ``np.linalg.cholesky`` factors each matrix of ``stack``.

    A stack larger than :data:`_CHUNK_BYTES` (the factors' size) or one
    whose call raises is halved: one call per chunk when every matrix
    factors, and each failing matrix ends up alone.
    """
    if len(stack) == 1 or stack.nbytes <= _CHUNK_BYTES:
        try:
            np.linalg.cholesky(stack)
            return np.ones(len(stack), dtype=bool)
        except np.linalg.LinAlgError:
            if len(stack) == 1:
                return np.zeros(1, dtype=bool)
    half = len(stack) // 2
    return np.concatenate(
        [_positive_definite(stack[:half]), _positive_definite(stack[half:])]
    )


def add_bias_column(X: np.ndarray) -> np.ndarray:
    """Append a constant-one column so linear models learn an intercept.

    ``X`` may be a stack ``(..., n, features)``; the column goes last.
    """
    return np.concatenate([X, np.ones((*X.shape[:-1], 1))], axis=-1)
