"""The per-edge round's spellings equal the ones they replaced, bit for bit.

docs/PERFORMANCE.md identities 17-19. Each test runs the repository's code
against the old spelling kept as an ``==`` oracle, compared bit for bit (so
``-0.0`` counts), over hypothesis inputs with NaN, ``±inf``, ``±0.0`` and
subnormals:

* 17 — the APE scale and the SVM loss take ``np.add.reduce(x) / x.size``
  where they took ``np.mean(x)``;
* 18 — a server evaluates its one shard with the model's kernel, as row 0
  of the default one-row batch did;
* 19 — :meth:`EdgeServer.step` sums its neighbour terms in place, as the
  out-of-place sums did.
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.ape import APECompressor
from repro.core.ape import APESchedule
from repro.core.config import StragglerStrategy
from repro.core.server import EdgeServer
from repro.models.ridge import RidgeRegression
from repro.models.softmax import SoftmaxRegression
from repro.models.svm import LinearSVM

_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.floats(-1e3, 1e3),
)
_FINITE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10, 10))


def _bits(value) -> bytes:
    return struct.pack("<d", value)


def _same(a, b) -> bool:
    """Bitwise equal, except that any two NaNs match.

    For the checks that run a model's BLAS products: the sign of a NaN made
    there from non-finite parameters changes from call to call of the
    *same* spelling, so only NaN-ness is a property of the spelling.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    same_bits = a.view(np.uint64) == b.view(np.uint64)
    return bool(np.all(same_bits | (np.isnan(a) & np.isnan(b))))


def _vectors(elements=_ENTRIES, max_size=300):
    # Up to 300 entries: numpy's pairwise sum switches blocks at 8 and 128.
    return st.lists(elements, min_size=1, max_size=max_size).map(
        lambda values: np.array(values, dtype=float)
    )


class TestMeanSpelling:
    """Identity 17: np.mean's own sum and division, without its wrapper."""

    @settings(max_examples=150, deadline=None)
    @given(_vectors(), st.booleans())
    def test_ape_scale(self, params, scheduled):
        schedule = APESchedule(1.0, 1.1, stage_iterations=3) if scheduled else None
        with np.errstate(invalid="ignore", over="ignore"):
            ctx = APECompressor(schedule).begin_round(params, 1)
            scale = max(float(np.mean(np.abs(params))), 1e-8)
        assert _bits(ctx["scale"]) == _bits(scale)
        threshold = (0.0 if schedule is None else schedule.send_threshold) * scale
        assert _bits(ctx["threshold"]) == _bits(threshold)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_svm_loss(self, data):
        n, d = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 5))
        model = LinearSVM(d, regularization=data.draw(st.sampled_from([0.0, 0.1])))
        X = np.array(data.draw(st.lists(_FINITE, min_size=n * d, max_size=n * d)))
        labels = st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)
        y = np.array(data.draw(labels))
        params = np.array(
            data.draw(st.lists(_ENTRIES, min_size=d + 1, max_size=d + 1))
        )
        design, signed = model._prepare_shard(X.reshape(n, d), y)
        with np.errstate(invalid="ignore", over="ignore"):
            margins = signed * (design @ params)
            hinge = np.maximum(0.0, 1.0 - margins)
            old = float(np.mean(hinge**2)) + 0.5 * model.regularization * float(
                params @ params
            )
            assert _same(model._loss_impl(params, design, signed), old)


def _server(model, X, y, params, neighbors=(), weights=(), **kwargs):
    return EdgeServer(
        0, model, X, y, neighbors, 1.0 - sum(weights), weights, 0.05, params,
        **kwargs,
    )


_MODELS = st.sampled_from(
    [
        lambda d: LinearSVM(d, regularization=0.01),
        lambda d: RidgeRegression(d, regularization=0.1),
        lambda d: SoftmaxRegression(d, 3, regularization=0.1),
    ]
)


@st.composite
def _shard_and_params(draw):
    model = draw(_MODELS)(draw(st.integers(1, 4)))
    n, d = draw(st.integers(1, 12)), model.n_features
    X = np.array(draw(st.lists(_FINITE, min_size=n * d, max_size=n * d))).reshape(n, d)
    labels = [0.0, 1.0] + ([2.0] if isinstance(model, SoftmaxRegression) else [])
    y = np.array(draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n)))
    if isinstance(model, RidgeRegression):
        y = y * draw(st.floats(-5, 5))
    params = np.array(
        draw(st.lists(_ENTRIES, min_size=model.n_params, max_size=model.n_params))
    )
    return model, X, y, params, draw(st.sampled_from([1.0, 0.37, 2.5]))


def _one_row_loss(server, params):
    prepared = server._prepared_shard()
    return server.objective_scale * float(
        server.model.batch_losses(params[None, :], prepared)[0]
    )


def _one_row_gradient(server, params):
    prepared = server._prepared_shard()
    return server.objective_scale * server.model.batch_gradients(
        params[None, :], prepared
    )[0]


class TestOneShardKernel:
    """Identity 18: ``local_loss`` / ``local_gradient`` of a model with the
    default batch evaluators equal row 0 of the one-row batch."""

    @settings(max_examples=200, deadline=None)
    @given(_shard_and_params())
    def test_matches_the_one_row_batch(self, inputs):
        model, X, y, params, scale = inputs
        server = _server(model, X, y, np.zeros(model.n_params), objective_scale=scale)
        with np.errstate(all="ignore"):
            loss = server.local_loss(params)
            assert type(loss) is float
            assert _same(loss, _one_row_loss(server, params))
            gradient = server.local_gradient(params)
            old = _one_row_gradient(server, params)
        assert gradient.dtype == old.dtype
        assert _same(gradient, old)

    def test_an_overriding_model_is_evaluated_through_its_batch(self):
        calls = []

        class CountingSVM(LinearSVM):
            def batch_losses(self, params_stack, prepared):
                calls.append("loss")
                return super().batch_losses(params_stack, prepared)

            def batch_gradients(self, params_stack, prepared):
                calls.append("gradient")
                return super().batch_gradients(params_stack, prepared)

        X = np.arange(12.0).reshape(4, 3)
        server = _server(CountingSVM(3), X, np.array([0.0, 1.0, 1.0, 0.0]), np.ones(4))
        server.local_loss()
        server.local_gradient(server.params)
        assert calls == ["loss", "gradient"]


def _old_step(server, degraded):
    """The out-of-place sums :meth:`EdgeServer.step` had, on the same state."""
    w_own = server.own_weight
    value = server._neighbor_value
    gradient = _one_row_gradient(server, server.params)
    if server.previous_params is None:
        mixed = w_own * server.params
        for j, w_j in zip(server.neighbors, server.neighbor_weights):
            mixed = mixed + w_j * value(j, True, degraded)
        return mixed - server.alpha * gradient
    mixed_current = w_own * server.params
    mixed_previous = 0.5 * (w_own + 1.0) * server.previous_params
    for j, w_j in zip(server.neighbors, server.neighbor_weights):
        mixed_current = mixed_current + w_j * value(j, True, degraded)
        mixed_previous = mixed_previous + 0.5 * w_j * value(j, False, degraded)
    return (
        server.params
        + mixed_current
        - mixed_previous
        - server.alpha * (gradient - server._previous_gradient)
    )


class TestInPlaceStepSums:
    """Identity 19: ``+=`` on the fresh layer sums is the old ``a = a + b``."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_two_steps_match_the_out_of_place_sums(self, data):
        d = data.draw(st.integers(1, 4))
        n_neighbors = data.draw(st.integers(0, 4))
        neighbors = tuple(range(1, n_neighbors + 1))
        weights = tuple(data.draw(st.floats(0.0, 0.25)) for _ in neighbors)
        strategy = data.draw(st.sampled_from(list(StragglerStrategy)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        X = rng.normal(size=(6, d))
        server = _server(
            LinearSVM(d), X, (X[:, 0] > 0).astype(float),
            np.array(data.draw(st.lists(_FINITE, min_size=d + 1, max_size=d + 1))),
            neighbors, weights, straggler_strategy=strategy,
        )
        vectors = st.lists(_ENTRIES, min_size=d + 1, max_size=d + 1).map(np.array)
        for _ in range(2):
            server.advance_views()
            for j in neighbors:
                server.views[j] = data.draw(vectors)
                server.fresh[j] = data.draw(st.booleans())
            degraded = frozenset(j for j in neighbors if data.draw(st.booleans()))
            with np.errstate(all="ignore"):
                expected = _old_step(server, degraded)
                assert _same(server.step(degraded), expected)
