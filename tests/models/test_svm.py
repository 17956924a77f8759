"""Tests for repro.models.svm.LinearSVM."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DataError
from repro.models.metrics import accuracy_score
from repro.models.svm import LinearSVM


@pytest.fixture
def separable(rng):
    n = 200
    X = rng.normal(size=(n, 3))
    w = np.array([2.0, -1.0, 0.5])
    y = np.where(X @ w > 0, 1.0, -1.0)
    return X, y


class TestLoss:
    def test_zero_params_loss_is_one_plus_reg(self, separable):
        X, y = separable
        model = LinearSVM(3, regularization=0.0)
        # margin 0 everywhere -> squared hinge = 1 for every sample.
        assert model.loss(np.zeros(model.n_params), X, y) == pytest.approx(1.0)

    def test_perfect_margin_has_zero_data_loss(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        model = LinearSVM(1, regularization=0.0, fit_intercept=False)
        assert model.loss(np.array([2.0]), X, y) == pytest.approx(0.0)

    def test_regularizer_added(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        model = LinearSVM(1, regularization=0.5, fit_intercept=False)
        w = np.array([2.0])
        assert model.loss(w, X, y) == pytest.approx(0.5 * 0.5 * 4.0)

    def test_loss_is_convex_along_a_line(self, separable, rng):
        X, y = separable
        model = LinearSVM(3, regularization=0.01)
        a = rng.normal(size=model.n_params)
        b = rng.normal(size=model.n_params)
        mid = model.loss((a + b) / 2, X, y)
        assert mid <= (model.loss(a, X, y) + model.loss(b, X, y)) / 2 + 1e-12


class TestLabels:
    def test_accepts_zero_one_labels(self, separable):
        X, y = separable
        model = LinearSVM(3)
        y01 = (y + 1) / 2
        params = model.init_params(seed=0)
        assert model.loss(params, X, y) == pytest.approx(model.loss(params, X, y01))

    def test_rejects_other_labels(self, separable):
        X, _ = separable
        model = LinearSVM(3)
        with pytest.raises(DataError):
            model.loss(model.init_params(0), X, np.full(X.shape[0], 2.0))


class TestTraining:
    def test_gradient_descent_separates_separable_data(self, separable):
        X, y = separable
        model = LinearSVM(3, regularization=1e-3)
        params = model.init_params(seed=1)
        step = 0.5 / model.gradient_lipschitz_bound(X)
        for _ in range(300):
            params = params - step * model.gradient(params, X, y)
        assert accuracy_score(y, model.predict(params, X)) > 0.98

    def test_predictions_are_signed(self, separable):
        X, y = separable
        model = LinearSVM(3)
        preds = model.predict(model.init_params(seed=2), X)
        assert set(np.unique(preds)) <= {-1.0, 1.0}

    def test_decision_function_sign_matches_predict(self, separable):
        X, _ = separable
        model = LinearSVM(3)
        params = model.init_params(seed=3)
        margins = model.decision_function(params, X)
        preds = model.predict(params, X)
        np.testing.assert_array_equal(preds, np.where(margins >= 0, 1.0, -1.0))


class TestValidation:
    def test_feature_mismatch_rejected(self, separable):
        X, y = separable
        model = LinearSVM(5)
        with pytest.raises(DataError):
            model.loss(model.init_params(0), X, y)

    def test_param_shape_checked(self, separable):
        X, y = separable
        model = LinearSVM(3)
        with pytest.raises(DataError):
            model.loss(np.zeros(2), X, y)

    def test_empty_batch_rejected(self):
        model = LinearSVM(3)
        with pytest.raises(DataError):
            model.loss(model.init_params(0), np.empty((0, 3)), np.empty(0))

    def test_n_params_counts_intercept(self):
        assert LinearSVM(24).n_params == 25
        assert LinearSVM(24, fit_intercept=False).n_params == 24


class TestLipschitz:
    def test_bound_dominates_observed_curvature(self, separable, rng):
        X, y = separable
        model = LinearSVM(3, regularization=0.01)
        bound = model.gradient_lipschitz_bound(X)
        for _ in range(10):
            a = rng.normal(size=model.n_params)
            b = rng.normal(size=model.n_params)
            grad_gap = np.linalg.norm(
                model.gradient(a, X, y) - model.gradient(b, X, y)
            )
            assert grad_gap <= bound * np.linalg.norm(a - b) + 1e-9


def _seed_loss(model, params, X, y):
    """``LinearSVM.loss`` as it was before shard preparation existed, verbatim."""
    params = model.check_params(params)
    X, y = model.check_batch(X, y)
    signed = model._signed_labels(y)
    design = model._design(X)
    margins = signed * (design @ params)
    hinge = np.maximum(0.0, 1.0 - margins)
    data_term = float(np.mean(hinge**2))
    reg_term = 0.5 * model.regularization * float(params @ params)
    return data_term + reg_term


def _seed_gradient(model, params, X, y):
    """``LinearSVM.gradient`` as it was before shard preparation existed, verbatim."""
    params = model.check_params(params)
    X, y = model.check_batch(X, y)
    signed = model._signed_labels(y)
    design = model._design(X)
    margins = signed * (design @ params)
    hinge = np.maximum(0.0, 1.0 - margins)
    coefficients = -2.0 * hinge * signed / design.shape[0]
    grad = design.T @ coefficients
    grad += model.regularization * params
    return grad


class TestPreparedKernelsBitwise:
    """Validate-once preparation ≡ per-call validation on an immutable shard.

    ``prepare_shards`` keeps each shard's ``(design, signed)`` pair and the
    batch kernels run the same operations on the same operands in the same
    order as ``loss`` / ``gradient`` — which themselves must still be the
    pre-preparation arithmetic (the ``_seed_*`` copies above). ``array_equal``,
    not ``allclose``: every per-edge digest rests on this.
    """

    @staticmethod
    def _shards(rng, n_shards, n_samples, n_features, signed_labels, ragged, one_class):
        shards = []
        for i in range(n_shards):
            n = n_samples + (i % 3 if ragged else 0)
            X = rng.normal(size=(n, n_features))
            y = np.ones(n) if one_class else rng.integers(0, 2, size=n).astype(float)
            shards.append((X, 2.0 * y - 1.0 if signed_labels else y))
        return shards

    @given(
        n_shards=st.integers(1, 8),
        n_samples=st.integers(1, 40),
        n_features=st.integers(1, 24),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        signed_labels=st.booleans(),
        fit_intercept=st.booleans(),
        ragged=st.booleans(),
        one_class=st.booleans(),
        contiguous=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_rows_equal_per_shard_calls(
        self,
        n_shards,
        n_samples,
        n_features,
        scale,
        signed_labels,
        fit_intercept,
        ragged,
        one_class,
        contiguous,
        seed,
    ):
        rng = np.random.default_rng(seed)
        model = LinearSVM(n_features, regularization=0.01, fit_intercept=fit_intercept)
        shards = self._shards(
            rng, n_shards, n_samples, n_features, signed_labels, ragged, one_class
        )
        prepared = model.prepare_shards(shards)
        if contiguous:
            params_stack = scale * rng.normal(size=(n_shards, model.n_params))
        else:
            buffer = scale * rng.normal(size=(n_shards + 2, model.n_params + 3))
            params_stack = buffer[1 : n_shards + 1, 2 : model.n_params + 2]

        losses = model.batch_losses(params_stack, prepared)
        gradients = model.batch_gradients(params_stack, prepared)
        assert losses.shape == (n_shards,)
        assert gradients.shape == (n_shards, model.n_params)
        # Twice on one preparation: evaluation leaves the prepared shard alone.
        assert np.array_equal(model.batch_gradients(params_stack, prepared), gradients)
        for i, (X, y) in enumerate(shards):
            assert losses[i] == model.loss(params_stack[i], X, y)
            assert losses[i] == _seed_loss(model, params_stack[i], X, y)
            assert np.array_equal(gradients[i], model.gradient(params_stack[i], X, y))
            assert np.array_equal(
                gradients[i], _seed_gradient(model, params_stack[i], X, y)
            )

    def test_preparation_does_not_alias_the_callers_labels(self, rng):
        """{0,1} labels are mapped into a new array; the shard is left as given."""
        model = LinearSVM(3)
        X = rng.normal(size=(6, 3))
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        ((design, signed),) = model.prepare_shards([(X, y)])
        assert design.shape == (6, 4) and np.all(design[:, -1] == 1.0)
        assert np.array_equal(signed, [-1, 1, 1, -1, 1, -1])
        assert np.array_equal(y, [0, 1, 1, 0, 1, 0])

    @pytest.mark.parametrize(
        "X, y",
        [
            (np.ones((4, 3)), np.array([0.0, 1.0, 2.0, 1.0])),  # bad label
            (np.ones((4, 3)), np.array([-1.0, 0.0, 1.0, 1.0])),  # mixed conventions
            (np.ones((4, 2)), np.array([0.0, 1.0, 0.0, 1.0])),  # feature mismatch
            (np.ones((4, 3)), np.array([0.0, 1.0, 0.0])),  # length mismatch
            (np.ones((0, 3)), np.empty(0)),  # empty
            (np.ones(3), np.array([1.0, 1.0, 1.0])),  # 1-D X
        ],
    )
    def test_bad_shards_raise_at_preparation(self, X, y):
        model = LinearSVM(3)
        good = (np.ones((2, 3)), np.array([0.0, 1.0]))
        with pytest.raises(DataError):
            model.prepare_shards([good, (X, y)])
