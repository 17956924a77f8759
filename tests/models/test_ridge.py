"""Tests for repro.models.ridge.RidgeRegression."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DataError
from repro.models.ridge import RidgeRegression


class TestExactSolution:
    def test_gradient_vanishes_at_closed_form_optimum(self, linear_dataset):
        model = RidgeRegression(linear_dataset.n_features, regularization=0.05)
        optimum = model.solve_exact(linear_dataset.X, linear_dataset.y)
        gradient = model.gradient(optimum, linear_dataset.X, linear_dataset.y)
        np.testing.assert_allclose(gradient, 0.0, atol=1e-10)

    def test_closed_form_beats_any_random_point(self, linear_dataset, rng):
        model = RidgeRegression(linear_dataset.n_features, regularization=0.05)
        optimum = model.solve_exact(linear_dataset.X, linear_dataset.y)
        best = model.loss(optimum, linear_dataset.X, linear_dataset.y)
        for _ in range(20):
            other = rng.normal(size=model.n_params)
            assert best <= model.loss(other, linear_dataset.X, linear_dataset.y)

    def test_gradient_descent_converges_to_closed_form(self, linear_dataset):
        model = RidgeRegression(linear_dataset.n_features, regularization=0.05)
        optimum = model.solve_exact(linear_dataset.X, linear_dataset.y)
        params = np.zeros(model.n_params)
        step = 1.0 / model.gradient_lipschitz_bound(linear_dataset.X)
        for _ in range(2000):
            params = params - step * model.gradient(
                params, linear_dataset.X, linear_dataset.y
            )
        np.testing.assert_allclose(params, optimum, atol=1e-6)

    def test_recovers_true_weights_on_clean_data(self, rng):
        n, p = 400, 4
        X = rng.normal(size=(n, p))
        true = np.array([1.0, -2.0, 0.5, 3.0, -1.0])  # last entry is bias
        y = X @ true[:-1] + true[-1]
        model = RidgeRegression(p, regularization=1e-8)
        estimate = model.solve_exact(X, y)
        np.testing.assert_allclose(estimate, true, atol=1e-4)


class TestInterface:
    def test_predict_is_linear(self, linear_dataset):
        model = RidgeRegression(linear_dataset.n_features)
        params = model.init_params(seed=0)
        a = model.predict(params, linear_dataset.X)
        b = model.predict(2 * params, linear_dataset.X)
        np.testing.assert_allclose(b, 2 * a)

    def test_lipschitz_bound_is_exact_for_quadratic(self, linear_dataset, rng):
        model = RidgeRegression(linear_dataset.n_features, regularization=0.1)
        bound = model.gradient_lipschitz_bound(linear_dataset.X)
        # For a quadratic the bound equals the Hessian's top eigenvalue;
        # verify tightness within a few percent using random directions.
        observed = 0.0
        for _ in range(30):
            a = rng.normal(size=model.n_params)
            b = rng.normal(size=model.n_params)
            gap = np.linalg.norm(
                model.gradient(a, linear_dataset.X, linear_dataset.y)
                - model.gradient(b, linear_dataset.X, linear_dataset.y)
            )
            observed = max(observed, gap / np.linalg.norm(a - b))
        assert observed <= bound + 1e-9
        assert observed >= 0.5 * bound

    def test_feature_mismatch_rejected(self, linear_dataset):
        model = RidgeRegression(linear_dataset.n_features + 1)
        with pytest.raises(DataError):
            model.loss(model.init_params(0), linear_dataset.X, linear_dataset.y)

    def test_no_intercept_variant(self, rng):
        model = RidgeRegression(3, fit_intercept=False)
        assert model.n_params == 3
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        assert np.isfinite(model.loss(np.zeros(3), X, y))


def _seed_loss(model, params, X, y):
    """``RidgeRegression.loss`` as it was before shard preparation, verbatim."""
    params = model.check_params(params)
    X, y = model.check_batch(X, y)
    residual = model._design(X) @ params - np.asarray(y, dtype=float)
    data_term = 0.5 * float(residual @ residual) / X.shape[0]
    return data_term + 0.5 * model.regularization * float(params @ params)


def _seed_gradient(model, params, X, y):
    """``RidgeRegression.gradient`` as it was before shard preparation, verbatim."""
    params = model.check_params(params)
    X, y = model.check_batch(X, y)
    design = model._design(X)
    residual = design @ params - np.asarray(y, dtype=float)
    return design.T @ residual / X.shape[0] + model.regularization * params


class TestPreparedKernelsBitwise:
    """The ridge twin of ``tests/models/test_svm.py::TestPreparedKernelsBitwise``."""

    @given(
        n_shards=st.integers(1, 8),
        n_samples=st.integers(1, 40),
        n_features=st.integers(1, 24),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        integer_targets=st.booleans(),
        fit_intercept=st.booleans(),
        ragged=st.booleans(),
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
        integer_targets,
        fit_intercept,
        ragged,
        contiguous,
        seed,
    ):
        rng = np.random.default_rng(seed)
        model = RidgeRegression(
            n_features, regularization=0.01, fit_intercept=fit_intercept
        )
        shards = []
        for i in range(n_shards):
            n = n_samples + (i % 3 if ragged else 0)
            y = rng.integers(-5, 6, size=n) if integer_targets else rng.normal(size=n)
            shards.append((rng.normal(size=(n, n_features)), y))
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
        for i, (X, y) in enumerate(shards):
            assert losses[i] == model.loss(params_stack[i], X, y)
            assert losses[i] == _seed_loss(model, params_stack[i], X, y)
            assert np.array_equal(gradients[i], model.gradient(params_stack[i], X, y))
            assert np.array_equal(
                gradients[i], _seed_gradient(model, params_stack[i], X, y)
            )

    @pytest.mark.parametrize(
        "X, y",
        [
            (np.ones((4, 2)), np.zeros(4)),  # feature mismatch
            (np.ones((4, 3)), np.zeros(3)),  # length mismatch
            (np.ones((0, 3)), np.empty(0)),  # empty
            (np.ones((4, 3)), np.zeros((4, 1))),  # 2-D y
        ],
    )
    def test_bad_shards_raise_at_preparation(self, X, y):
        model = RidgeRegression(3)
        with pytest.raises(DataError):
            model.prepare_shards([(np.ones((2, 3)), np.zeros(2)), (X, y)])
