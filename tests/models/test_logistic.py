"""Tests for repro.models.logistic.LogisticRegression."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DataError
from repro.models.logistic import LogisticRegression, _stable_sigmoid
from repro.models.metrics import accuracy_score


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The boolean-mask spelling ``_stable_sigmoid`` replaced: the oracle."""
    out = np.empty_like(z, dtype=float)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


#: ±0, the subnormals, where exp under- and overflows, and non-numbers.
SIGMOID_SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 36.0, -36.0, 709.8, -709.8,
    745.0, -745.0, 745.2, -745.2, 1e3, -1e3, np.inf, -np.inf, np.nan,
]

sigmoid_inputs = st.lists(
    st.one_of(
        st.sampled_from(SIGMOID_SPECIAL),
        st.floats(allow_nan=True, allow_infinity=True, width=64),
    ),
    max_size=40,
).map(np.array)


def _check_sigmoid_equals_the_masked_spelling(z: np.ndarray) -> None:
    with np.errstate(all="ignore"):
        expected, got = masked_sigmoid(z), _stable_sigmoid(z)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


class TestStableSigmoid:
    @settings(max_examples=50, deadline=None)
    @given(sigmoid_inputs)
    def test_equals_the_masked_spelling(self, z):
        _check_sigmoid_equals_the_masked_spelling(z)

    @pytest.mark.differential
    @settings(max_examples=400, deadline=None)
    @given(sigmoid_inputs)
    def test_equals_the_masked_spelling_wide(self, z):
        _check_sigmoid_equals_the_masked_spelling(z)

    def test_matches_naive_formula_in_safe_range(self, rng):
        z = rng.normal(0, 3, size=100)
        np.testing.assert_allclose(_stable_sigmoid(z), 1 / (1 + np.exp(-z)))

    def test_no_overflow_at_extremes(self):
        out = _stable_sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)
        assert np.all(np.isfinite(out))


class TestLoss:
    def test_zero_params_gives_log2(self, binary_dataset):
        model = LogisticRegression(binary_dataset.n_features, regularization=0.0)
        loss = model.loss(np.zeros(model.n_params), binary_dataset.X, binary_dataset.y)
        assert loss == pytest.approx(np.log(2.0))

    def test_extreme_margins_do_not_overflow(self, binary_dataset):
        model = LogisticRegression(binary_dataset.n_features)
        huge = np.full(model.n_params, 1e4)
        assert np.isfinite(model.loss(huge, binary_dataset.X, binary_dataset.y))

    def test_accepts_both_label_conventions(self, binary_dataset):
        model = LogisticRegression(binary_dataset.n_features)
        params = model.init_params(seed=0)
        y01 = (binary_dataset.y + 1) / 2
        assert model.loss(params, binary_dataset.X, binary_dataset.y) == pytest.approx(
            model.loss(params, binary_dataset.X, y01)
        )

    def test_rejects_other_labels(self, binary_dataset):
        model = LogisticRegression(binary_dataset.n_features)
        with pytest.raises(DataError):
            model.loss(
                model.init_params(0),
                binary_dataset.X,
                np.full(binary_dataset.n_samples, 3.0),
            )


class TestTraining:
    def test_learns_separable_data(self, rng):
        n = 300
        X = rng.normal(size=(n, 4))
        w = np.array([1.5, -2.0, 1.0, 0.5])
        y = (X @ w > 0).astype(float)
        model = LogisticRegression(4, regularization=1e-3)
        params = model.init_params(seed=1)
        step = 1.0 / model.gradient_lipschitz_bound(X)
        for _ in range(800):
            params = params - step * model.gradient(params, X, y)
        assert accuracy_score(y, model.predict(params, X)) > 0.97

    def test_predict_proba_in_unit_interval(self, binary_dataset):
        model = LogisticRegression(binary_dataset.n_features)
        probs = model.predict_proba(model.init_params(seed=2), binary_dataset.X)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_predictions_are_zero_one(self, binary_dataset):
        model = LogisticRegression(binary_dataset.n_features)
        preds = model.predict(model.init_params(seed=3), binary_dataset.X)
        assert set(np.unique(preds)) <= {0.0, 1.0}

    def test_lipschitz_bound_holds(self, binary_dataset, rng):
        model = LogisticRegression(binary_dataset.n_features, regularization=0.01)
        bound = model.gradient_lipschitz_bound(binary_dataset.X)
        for _ in range(10):
            a = rng.normal(size=model.n_params)
            b = rng.normal(size=model.n_params)
            gap = np.linalg.norm(
                model.gradient(a, binary_dataset.X, binary_dataset.y)
                - model.gradient(b, binary_dataset.X, binary_dataset.y)
            )
            assert gap <= bound * np.linalg.norm(a - b) + 1e-9


class TestBatchKernelsBitwise:
    """``batch_losses`` / ``batch_gradients`` ≡ per-shard ``loss`` / ``gradient``.

    The vectorized engine's bit-for-bit parity with the reference engine
    rests on this: the stacked ``np.matmul`` kernels must hand every shard
    to the same BLAS routine the per-shard ``@`` uses. ``array_equal``, not
    ``allclose`` — a numpy/BLAS build where the identity fails must fail
    here, loudly, not drift.
    """

    @staticmethod
    def _shards(rng, n_shards, n_samples, n_features, signed_labels, ragged):
        shards = []
        for i in range(n_shards):
            n = n_samples + (i % 3 if ragged else 0)
            X = rng.normal(size=(n, n_features))
            y = rng.integers(0, 2, size=n).astype(float)
            shards.append((X, 2.0 * y - 1.0 if signed_labels else y))
        return shards

    @staticmethod
    def _assert_rows_equal_per_shard_calls(model, shards, prepared, params_stack):
        expected_losses = np.array(
            [model.loss(params_stack[i], X, y) for i, (X, y) in enumerate(shards)]
        )
        expected_gradients = np.stack(
            [model.gradient(params_stack[i], X, y) for i, (X, y) in enumerate(shards)]
        )
        assert np.array_equal(model.batch_losses(params_stack, prepared), expected_losses)
        assert np.array_equal(
            model.batch_gradients(params_stack, prepared), expected_gradients
        )

    @given(
        n_shards=st.integers(1, 12),
        n_samples=st.integers(1, 40),
        n_features=st.integers(1, 24),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        signed_labels=st.booleans(),
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
        signed_labels,
        fit_intercept,
        ragged,
        contiguous,
        seed,
    ):
        rng = np.random.default_rng(seed)
        model = LogisticRegression(
            n_features, regularization=0.01, fit_intercept=fit_intercept
        )
        shards = self._shards(
            rng, n_shards, n_samples, n_features, signed_labels, ragged
        )
        prepared = model.prepare_shards(shards)
        assert (prepared.design_stack is None) == (ragged and n_shards > 1)
        if contiguous:
            params_stack = scale * rng.normal(size=(n_shards, model.n_params))
        else:
            # A row-and-column slice of a larger buffer: strided rows, like
            # the engine's (N + E, d) stack and the pool's per-worker slices.
            buffer = scale * rng.normal(size=(n_shards + 2, model.n_params + 3))
            params_stack = buffer[1 : n_shards + 1, 2 : model.n_params + 2]
            assert not params_stack.flags.c_contiguous or n_shards == 1

        self._assert_rows_equal_per_shard_calls(model, shards, prepared, params_stack)

    def test_engine_scale_shapes(self, rng):
        """The benchmark workloads' shapes: (1024, 10, 11) and (256, 128, 65)."""
        for n_shards, n_samples, n_features in ((1024, 10, 10), (256, 128, 64)):
            model = LogisticRegression(n_features)
            shards = self._shards(rng, n_shards, n_samples, n_features, False, False)
            self._assert_rows_equal_per_shard_calls(
                model,
                shards,
                model.prepare_shards(shards),
                rng.normal(size=(n_shards, model.n_params)),
            )

    def test_uniform_shards_are_held_once(self, rng):
        model = LogisticRegression(3)
        prepared = model.prepare_shards(self._shards(rng, 4, 5, 3, False, False))
        assert prepared.design_stack.shape == (4, 5, 4)
        assert prepared.signed_stack.shape == (4, 5)
        assert prepared.designs == () and prepared.signed == ()
        assert np.all(prepared.design_stack[:, :, -1] == 1.0)
