"""Cross-model mathematical equivalences and consistency checks."""

import numpy as np
import pytest

from repro.models.logistic import LogisticRegression
from repro.models.ridge import RidgeRegression
from repro.models.softmax import SoftmaxRegression
from repro.models.svm import LinearSVM


class TestSoftmaxLogisticEquivalence:
    """Two-class softmax and binary logistic regression define the same
    classifier family; trained on the same data they reach the same decision
    boundary (their parametrizations differ by a gauge)."""

    def test_same_predictions_after_training(self, rng):
        n, p = 240, 3
        X = rng.normal(size=(n, p))
        w = rng.normal(size=p)
        y01 = (X @ w + 0.2 * rng.normal(size=n) > 0).astype(np.int64)

        logistic = LogisticRegression(p, regularization=1e-3)
        params_l = logistic.init_params(seed=0)
        step = 1.0 / logistic.gradient_lipschitz_bound(X)
        for _ in range(1500):
            params_l = params_l - step * logistic.gradient(params_l, X, y01.astype(float))

        softmax = SoftmaxRegression(p, n_classes=2, regularization=1e-3)
        params_s = softmax.init_params(seed=0)
        step = 1.0 / softmax.gradient_lipschitz_bound(X)
        for _ in range(1500):
            params_s = params_s - step * softmax.gradient(params_s, X, y01)

        pred_l = logistic.predict(params_l, X)
        pred_s = softmax.predict(params_s, X).astype(float)
        agreement = np.mean(pred_l == pred_s)
        assert agreement > 0.99

    def test_probabilities_agree(self, rng):
        """With matched parameters (softmax columns w/2, -w/2), the
        probability functions coincide exactly."""
        p = 4
        logistic = LogisticRegression(p, regularization=0.0)
        softmax = SoftmaxRegression(p, n_classes=2, regularization=0.0)
        w = rng.normal(size=logistic.n_params)
        # softmax weight matrix: class-0 column -w/2, class-1 column +w/2
        matrix = np.stack([-w / 2, w / 2], axis=1)
        X = rng.normal(size=(50, p))
        p_logistic = logistic.predict_proba(w, X)
        p_softmax = softmax.predict_proba(matrix.reshape(-1), X)[:, 1]
        np.testing.assert_allclose(p_logistic, p_softmax, atol=1e-12)


class TestInitializationContracts:
    @pytest.mark.parametrize(
        "model",
        [
            LinearSVM(5),
            LogisticRegression(5),
            RidgeRegression(5),
            SoftmaxRegression(5, 3),
        ],
        ids=["svm", "logistic", "ridge", "softmax"],
    )
    def test_init_is_seed_deterministic(self, model):
        np.testing.assert_array_equal(
            model.init_params(seed=7), model.init_params(seed=7)
        )
        assert not np.array_equal(
            model.init_params(seed=7), model.init_params(seed=8)
        )

    def test_mlp_init_deterministic(self):
        from repro.models.mlp import MLPClassifier

        model = MLPClassifier((6, 4, 2))
        np.testing.assert_array_equal(
            model.init_params(seed=7), model.init_params(seed=7)
        )


class TestSvmVsLogisticOnSeparableData:
    def test_both_separate_clean_data(self, rng):
        n, p = 200, 3
        X = rng.normal(size=(n, p))
        w = rng.normal(size=p)
        signed = np.where(X @ w > 0, 1.0, -1.0)

        svm = LinearSVM(p, regularization=1e-4)
        params = svm.init_params(seed=0)
        step = 0.5 / svm.gradient_lipschitz_bound(X)
        for _ in range(600):
            params = params - step * svm.gradient(params, X, signed)
        svm_accuracy = np.mean(svm.predict(params, X) == signed)

        logistic = LogisticRegression(p, regularization=1e-4)
        params = logistic.init_params(seed=0)
        step = 0.5 / logistic.gradient_lipschitz_bound(X)
        y01 = (signed + 1) / 2
        for _ in range(600):
            params = params - step * logistic.gradient(params, X, y01)
        logistic_accuracy = np.mean(logistic.predict(params, X) == y01)

        assert svm_accuracy > 0.98
        assert logistic_accuracy > 0.98


class TestKeptForwardPass:
    """``batch_gradients`` on the forward pass ``batch_losses`` kept ≡ on its
    own, bit for bit, for every model family (most keep nothing)."""

    @staticmethod
    def _cases(rng):
        from repro.models.mlp import MLPClassifier

        def shards(n_features, sizes, classes=None):
            out = []
            for n in sizes:
                X = rng.normal(size=(n, n_features))
                if classes is None:
                    y = (X @ rng.normal(size=n_features) > 0).astype(float)
                else:
                    y = rng.integers(0, classes, n).astype(float)
                out.append((X, y))
            return out

        yield LogisticRegression(4), shards(4, [12, 12, 12])
        yield LogisticRegression(4), shards(4, [12, 7, 12])  # ragged: a loop
        yield MLPClassifier((4, 6, 3)), shards(4, [12, 7, 12], classes=3)
        yield LinearSVM(4), shards(4, [12, 12])
        yield RidgeRegression(4), [(X, X @ np.ones(4)) for X, _ in shards(4, [9, 9])]

    def test_gradients_on_the_kept_pass_equal_a_fresh_one(self, rng):
        for model, shards in self._cases(rng):
            prepared = model.prepare_shards(shards)
            params = rng.normal(size=(len(shards), model.n_params))
            forward = {}
            losses = model.batch_losses(params, prepared, forward)
            assert np.array_equal(losses, model.batch_losses(params, prepared))
            kept = model.batch_gradients(params, prepared, forward)
            fresh = model.batch_gradients(params, prepared)
            assert kept.tobytes() == fresh.tobytes(), type(model).__name__
