"""``Model.lipschitz_bounds`` ≡ per-shard ``np.linalg.norm(design, ord=2)``, bitwise.

The step size — hence every digest — hangs off this number, so the stacked
``svd(compute_uv=False)`` route is held with ``==`` on floats against the
per-shard spelling it replaced (kept here as the reference), over the shapes
of ``TestBatchKernelsBitwise``. ``Model.lipschitz_bound``, the screened
maximum the trainer uses, is held the same way against the maximum of that
reference. A numpy / LAPACK build where an identity fails must fail here,
loudly, not drift.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.models.base as base
from repro.exceptions import DataError
from repro.models.base import Model, add_bias_column, top_singular_values
from repro.models.logistic import LogisticRegression
from repro.models.mlp import MLPClassifier
from repro.models.ridge import RidgeRegression
from repro.models.softmax import SoftmaxRegression
from repro.models.svm import LinearSVM


def _reference_bound(model, X) -> float:
    """The pre-batching ``gradient_lipschitz_bound``: one ``norm(ord=2)`` per shard."""
    X = np.asarray(X, dtype=float)
    if isinstance(model, MLPClassifier):
        design = X
    else:
        design = add_bias_column(X) if model.fit_intercept else X
    top = float(np.linalg.norm(design, ord=2))
    n = design.shape[0]
    if isinstance(model, LogisticRegression):
        return top**2 / (4.0 * n) + model.regularization
    if isinstance(model, LinearSVM):
        return 2.0 * top**2 / n + model.regularization
    if isinstance(model, RidgeRegression):
        return top**2 / n + model.regularization
    return top**2 / (2.0 * n) + model.regularization  # softmax, mlp


def _models(n_features, fit_intercept):
    return [
        LogisticRegression(n_features, 0.01, fit_intercept),
        LinearSVM(n_features, 0.01, fit_intercept),
        RidgeRegression(n_features, 0.01, fit_intercept),
        SoftmaxRegression(n_features, 3, 0.01, fit_intercept),
        MLPClassifier([n_features, 4, 3], 0.01),
    ]


class _DefaultBoundModel(Model):
    """The base class's own bound (no override of either entry point)."""

    n_params = 1

    def loss(self, params, X, y):
        raise NotImplementedError

    gradient = predict = loss


class TestLipschitzBoundsBitwise:
    @given(
        n_shards=st.integers(1, 9),
        n_samples=st.integers(1, 40),
        n_features=st.integers(1, 12),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        fit_intercept=st.booleans(),
        ragged=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_batched_equals_per_shard_norm(
        self, n_shards, n_samples, n_features, scale, fit_intercept, ragged, seed
    ):
        rng = np.random.default_rng(seed)
        Xs = [scale * rng.normal(size=(n_samples, n_features)) for _ in range(n_shards)]
        # Degenerate shards: all-zero, rank one, and a strided (non-contiguous) view.
        Xs[0] = np.zeros((n_samples, n_features))
        if n_shards > 1:
            Xs[1] = np.outer(rng.normal(size=n_samples), rng.normal(size=n_features))
        if n_shards > 2:
            Xs[2] = rng.normal(size=(2 * n_samples, 2 * n_features))[::2, ::2]
        if ragged:
            # One odd-sized shard forces the per-shard fallback for all of them.
            Xs[-1] = rng.normal(size=(n_samples + 1, n_features))
        for model in _models(n_features, fit_intercept) + [_DefaultBoundModel()]:
            bounds = model.lipschitz_bounds(Xs)
            assert all(type(bound) is float for bound in bounds)
            assert bounds == [model.gradient_lipschitz_bound(X) for X in Xs]
            if not isinstance(model, _DefaultBoundModel):
                assert bounds == [_reference_bound(model, X) for X in Xs]

    def test_top_singular_values_equal_norm_on_ragged_and_stacked(self, rng):
        equal = [rng.normal(size=(10, 11)) for _ in range(64)]
        ragged = equal + [rng.normal(size=(7, 11))]
        for designs in (equal, ragged):
            assert top_singular_values(designs) == [
                float(np.linalg.norm(design, ord=2)) for design in designs
            ]
        assert top_singular_values([]) == []

    def test_base_class_default(self, rng):
        model = _DefaultBoundModel()
        X = rng.normal(size=(12, 5))
        assert model.gradient_lipschitz_bound(X) == (
            float(np.linalg.norm(X, ord=2)) ** 2 / 12
        )
        # An empty batch has no curvature to bound: the documented 1.0.
        empty = np.empty((0, 5))
        assert model.gradient_lipschitz_bound(empty) == 1.0
        assert model.lipschitz_bounds([X, empty]) == [
            model.gradient_lipschitz_bound(X),
            1.0,
        ]

    def test_subclass_overriding_only_the_scalar_bound_is_honoured(self, rng):
        class Halved(_DefaultBoundModel):
            def gradient_lipschitz_bound(self, X):
                return 0.5 * super().gradient_lipschitz_bound(X)

        Xs = [rng.normal(size=(6, 3)) for _ in range(4)]
        model = Halved()
        assert model.lipschitz_bounds(Xs) == [
            model.gradient_lipschitz_bound(X) for X in Xs
        ]

    def test_feature_mismatch_still_raises(self, rng):
        model = LogisticRegression(4)
        with pytest.raises(DataError, match="features"):
            model.lipschitz_bounds([rng.normal(size=(5, 4)), rng.normal(size=(5, 3))])


def _model(family, n_features, regularization, fit_intercept):
    if family == "logistic":
        return LogisticRegression(n_features, regularization, fit_intercept)
    if family == "svm":
        return LinearSVM(n_features, regularization, fit_intercept)
    if family == "ridge":
        return RidgeRegression(n_features, regularization, fit_intercept)
    if family == "softmax":
        return SoftmaxRegression(n_features, 3, regularization, fit_intercept)
    return MLPClassifier([n_features, 4, 3], regularization)


FAMILIES = ("logistic", "svm", "ridge", "softmax", "mlp")


def _exhaustive(model, Xs, scales) -> float:
    """The maximum the trainer took before screening, over the verbatim formulas."""
    return max(scale * _reference_bound(model, X) for scale, X in zip(scales, Xs))


class _GesddCounter:
    """Counts the matrices handed to ``np.linalg.svd``: a stack's leading dimension."""

    def __init__(self, monkeypatch):
        self.matrices = 0
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            self.matrices += a.shape[0] if a.ndim == 3 else 1
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)


class TestScreenedMaximumBitwise:
    """``lipschitz_bound(Xs, scales)`` == the exhaustive maximum, with float ``==``."""

    @given(
        family=st.sampled_from(FAMILIES),
        n_shards=st.integers(1, 36),
        n_samples=st.integers(1, 30),
        n_features=st.integers(1, 12),
        feature_scale=st.sampled_from([1e-3, 1.0, 1e3]),
        regularization=st.sampled_from([0.0, 0.01, 10.0]),
        fit_intercept=st.booleans(),
        ragged=st.booleans(),
        sample_weighted=st.booleans(),
        epochs=st.integers(1, 3),
        adversary=st.sampled_from(["none", "duplicates", "ulp", "zero", "rank_one"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_exhaustive_maximum(
        self,
        family,
        n_shards,
        n_samples,
        n_features,
        feature_scale,
        regularization,
        fit_intercept,
        ragged,
        sample_weighted,
        epochs,
        adversary,
        seed,
    ):
        rng = np.random.default_rng(seed)
        model = _model(family, n_features, regularization, fit_intercept)
        sizes = (
            rng.integers(n_samples, 2 * n_samples + 1, size=n_shards)
            if ragged
            else np.full(n_shards, n_samples)
        )
        shards = [feature_scale * rng.normal(size=(n, n_features)) for n in sizes]
        top = int(np.argmax([_reference_bound(model, X) for X in shards]))
        others = [i for i in range(n_shards) if i != top][: max(1, n_shards // 3)]
        for j, i in enumerate(others if n_shards > 1 else []):
            if adversary == "duplicates":
                shards[i] = shards[top].copy()
            elif adversary == "ulp":
                # 1 ± k ulp: a near-tie no margin may exclude.
                shards[i] = shards[top] * (1.0 + (j % 7 - 3) * np.finfo(float).eps)
            elif adversary == "zero":
                shards[i] = np.zeros_like(shards[i])
            elif adversary == "rank_one":
                shards[i] = np.outer(
                    rng.normal(size=shards[i].shape[0]), rng.normal(size=n_features)
                )
        # A drift horizon: every epoch's shards in one list, epoch-major.
        drift = 0.1 * feature_scale
        Xs = [
            X if epoch == 0 else X + drift * epoch * rng.normal(size=X.shape)
            for epoch in range(epochs)
            for X in shards
        ]
        per_epoch = (
            [n * n_shards / sizes.sum() for n in sizes.tolist()]
            if sample_weighted
            else [1.0] * n_shards
        )
        scales = per_epoch * epochs
        bound = model.lipschitz_bound(Xs, scales)
        assert type(bound) is float
        assert bound == _exhaustive(model, Xs, scales)
        assert bound == max(s * b for s, b in zip(scales, model.lipschitz_bounds(Xs)))

    def test_not_excluded_shards_are_decomposed_exactly(self, rng, monkeypatch):
        """Exact copies of the maximum reach ``μ`` exactly, so Cholesky cannot
        exclude them: the ones that were not candidates take the exact branch."""
        model = LogisticRegression(6, 0.01)
        Xs = [rng.normal(size=(20, 6)) for _ in range(24)]
        peak = 3.0 * rng.normal(size=(20, 6))
        copies = [2, 5, 11, 17, 19, 23]
        for i in copies:
            Xs[i] = peak.copy()
        counter = _GesddCounter(monkeypatch)
        bound = model.lipschitz_bound(Xs, [1.0] * len(Xs))
        assert bound == _exhaustive(model, Xs, [1.0] * len(Xs))
        # Four candidates (all copies: equal estimates), then the other two.
        assert counter.matrices == len(copies) > base._CANDIDATES

    def test_order_never_reaches_the_result(self, rng, monkeypatch):
        """The estimate only orders: the worst order gives the same bits.

        The shards' bounds lie within a few percent of each other, so the
        maximum sits just above the threshold the smallest candidates set."""
        model = LinearSVM(8, 0.01)
        Xs = [rng.normal(size=(200, 8)) for _ in range(40)]
        scales = [1.0] * len(Xs)
        expected = _exhaustive(model, Xs, scales)
        true_order = base._top_eigenvalue_estimates
        monkeypatch.setattr(
            base, "_top_eigenvalue_estimates", lambda gram: -true_order(gram)
        )
        counter = _GesddCounter(monkeypatch)
        assert model.lipschitz_bound(Xs, scales) == expected
        assert counter.matrices > base._CANDIDATES

    def test_gram_overflow_takes_the_exact_path(self, rng):
        """``tr(G)`` overflows while ``σ²`` does not: decomposed, the exhaustive value."""
        model = RidgeRegression(40, 0.01, fit_intercept=False)
        Xs = [rng.normal(size=(50, 40)) for _ in range(12)]
        orthonormal, _ = np.linalg.qr(rng.normal(size=(50, 40)))
        Xs[7] = np.sqrt(1e307) * orthonormal  # G = 1e307 I, tr(G) = 4e308
        with np.errstate(over="ignore"):
            assert np.isinf(np.trace(Xs[7].T @ Xs[7]))
        scales = [1.0] * len(Xs)
        bound = model.lipschitz_bound(Xs, scales)
        assert np.isfinite(bound)
        assert bound == _exhaustive(model, Xs, scales)
        # Entries whose squares overflow fail exactly as the exhaustive path does.
        Xs[7] = 1e160 * orthonormal
        with pytest.raises(OverflowError):
            _exhaustive(model, Xs, scales)
        with pytest.raises(OverflowError):
            model.lipschitz_bound(Xs, scales)

    @pytest.mark.parametrize("n_shards", [4, 12])
    @pytest.mark.parametrize("bad", ["empty", "nan", "inf"])
    def test_bad_shard_is_named_before_any_decomposition(
        self, rng, monkeypatch, n_shards, bad
    ):
        model = LogisticRegression(3)
        Xs = [rng.normal(size=(8, 3)) for _ in range(n_shards)]
        if bad == "empty":
            Xs[2] = np.empty((0, 3))
        else:
            Xs[2][5, 1] = np.nan if bad == "nan" else -np.inf
        counter = _GesddCounter(monkeypatch)
        with pytest.raises(DataError, match="shard 2") as error:
            model.lipschitz_bound(Xs, [1.0] * n_shards)
        assert error.value.shard == 2
        assert counter.matrices == 0


class TestLogisticLabelMatrix:
    """``prepare_shards`` signs labels on the ``(N, n)`` matrix, row ≡ ``_signed_labels``."""

    @given(
        kinds=st.lists(
            st.sampled_from(["signed", "binary", "all_one", "all_zero", "all_minus"]),
            min_size=1,
            max_size=9,
        ),
        n_samples=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_mixed_conventions_match_per_shard_outcome(self, kinds, n_samples, seed):
        rng = np.random.default_rng(seed)
        model = LogisticRegression(3)
        shards = []
        for kind in kinds:
            binary = rng.integers(0, 2, size=n_samples).astype(float)
            y = {
                "signed": 2.0 * binary - 1.0,
                "binary": binary,
                "all_one": np.ones(n_samples),
                "all_zero": np.zeros(n_samples),
                "all_minus": -np.ones(n_samples),
            }[kind]
            shards.append((rng.normal(size=(n_samples, 3)), y))
        prepared = model.prepare_shards(shards)
        expected = np.stack([model._signed_labels(y) for _, y in shards])
        assert np.array_equal(prepared.signed_stack, expected)
        # Integer label arrays take the same route.
        as_int = [(X, y.astype(int)) for X, y in shards]
        assert np.array_equal(model.prepare_shards(as_int).signed_stack, expected)

    @pytest.mark.parametrize("bad_value", [2.0, 0.5, np.nan, -2.0])
    @pytest.mark.parametrize("bad_shards", [(0,), (3,), (2, 4)])
    def test_bad_label_anywhere_names_the_first_bad_shard(self, rng, bad_value, bad_shards):
        model = LogisticRegression(3)
        shards = []
        for i in range(5):
            y = rng.integers(0, 2, size=8).astype(float)
            if i % 2:
                y = 2.0 * y - 1.0
            if i in bad_shards:
                y[i] = bad_value + 10 * i  # distinct per shard (NaN stays NaN)
            shards.append((rng.normal(size=(8, 3)), y))
        with pytest.raises(DataError) as per_shard:
            model._signed_labels(shards[bad_shards[0]][1])
        with pytest.raises(DataError) as batched:
            model.prepare_shards(shards)
        assert str(batched.value) == str(per_shard.value)
        assert "labels must be in" in str(batched.value)

    def test_a_shard_mixing_both_conventions_is_rejected(self, rng):
        model = LogisticRegression(3)
        mixed = np.array([-1.0, 0.0, 1.0, 1.0])
        shards = [(rng.normal(size=(4, 3)), np.array([0.0, 1.0, 1.0, 0.0]))] * 2
        shards.append((rng.normal(size=(4, 3)), mixed))
        with pytest.raises(DataError, match=r"got values \[-1\.  0\.  1\.\]"):
            model.prepare_shards(shards)
