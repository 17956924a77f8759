"""``Model.lipschitz_bounds`` ≡ per-shard ``np.linalg.norm(design, ord=2)``, bitwise.

The step size — hence every digest — hangs off this number, so the stacked
``svd(compute_uv=False)`` route is held with ``==`` on floats against the
per-shard spelling it replaced (kept here as the reference), over the shapes
of ``TestBatchKernelsBitwise``. A numpy / LAPACK build where the identity
fails must fail here, loudly, not drift.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
