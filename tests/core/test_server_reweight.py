"""Unit semantics of the REWEIGHT straggler strategy at the server level."""

import numpy as np
import pytest

from repro.core.config import StragglerStrategy
from repro.core.robust import RobustAggregationSpec
from repro.core.server import EdgeServer
from repro.models.ridge import RidgeRegression


@pytest.fixture
def model():
    return RidgeRegression(n_features=2, regularization=0.0, fit_intercept=False)


def make_server(model, rng, strategy):
    X = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    return EdgeServer(
        node_id=0,
        model=model,
        X=X,
        y=y,
        neighbors=(1,),
        own_weight=0.6,
        neighbor_weights=[0.4],
        alpha=0.1,
        initial_params=np.zeros(2),
        straggler_strategy=strategy,
    )


class TestNeighborValueSubstitution:
    def test_fresh_view_used_under_both_strategies(self, model, rng):
        for strategy in StragglerStrategy:
            server = make_server(model, rng, strategy)
            server.views[1] = np.array([5.0, 5.0])
            server.fresh[1] = True
            value = server._neighbor_value(1, current_layer=True)
            np.testing.assert_array_equal(value, [5.0, 5.0])

    def test_stale_strategy_keeps_the_cached_view(self, model, rng):
        server = make_server(model, rng, StragglerStrategy.STALE)
        server.views[1] = np.array([5.0, 5.0])
        server.fresh[1] = False
        np.testing.assert_array_equal(
            server._neighbor_value(1, current_layer=True), [5.0, 5.0]
        )

    def test_reweight_substitutes_own_params_on_current_layer(self, model, rng):
        server = make_server(model, rng, StragglerStrategy.REWEIGHT)
        server.params = np.array([7.0, -7.0])
        server.views[1] = np.array([5.0, 5.0])
        server.fresh[1] = False
        np.testing.assert_array_equal(
            server._neighbor_value(1, current_layer=True), [7.0, -7.0]
        )

    def test_reweight_substitutes_previous_params_on_previous_layer(
        self, model, rng
    ):
        server = make_server(model, rng, StragglerStrategy.REWEIGHT)
        server.step()
        server.advance_views()
        server.previous_fresh[1] = False
        np.testing.assert_array_equal(
            server._neighbor_value(1, current_layer=False),
            server.previous_params,
        )

    def test_freshness_resets_on_advance_and_sets_on_receive(self, model, rng):
        from repro.network.messages import ParameterUpdate

        server = make_server(model, rng, StragglerStrategy.REWEIGHT)
        assert server.fresh[1]  # shared x^0: views start exact
        server.advance_views()
        assert not server.fresh[1]
        assert server.previous_fresh[1]
        server.receive_update(ParameterUpdate.dense(1, 1, np.ones(2)))
        assert server.fresh[1]


class TestReweightMixingEquivalence:
    def test_missing_neighbor_acts_as_diagonal_weight(self, model, rng):
        """With REWEIGHT, a failed first-round neighbor contributes own params:
        the mix equals (w_ii + w_ij) * x_i, i.e. the link weight folded onto
        the diagonal."""
        server = make_server(model, rng, StragglerStrategy.REWEIGHT)
        server.params = np.array([2.0, 4.0])
        server.views[1] = np.array([100.0, 100.0])  # stale garbage
        server.fresh[1] = False
        gradient = server.local_gradient(server.params)
        new = server.step()
        expected = (0.6 + 0.4) * np.array([2.0, 4.0]) - 0.1 * gradient
        np.testing.assert_allclose(new, expected)


def borrow_and_restore_step(server, degraded):
    """The semi-sync engine's former degraded step, kept as the oracle.

    It lent the server's own parameters to each degraded neighbor's view
    slots (both layers, marked fresh), ran the plain ``step()`` and put
    the views and flags back.
    """
    active = [j for j in degraded if j in server.views]
    saved = []
    for j in active:
        saved.append(
            (
                j,
                server.views[j],
                server.fresh[j],
                server.previous_views.get(j),
                server.previous_fresh.get(j),
            )
        )
        server.views[j] = server.params
        server.fresh[j] = True
        if j in server.previous_views and server.previous_params is not None:
            server.previous_views[j] = server.previous_params
            server.previous_fresh[j] = True
    try:
        return server.step()
    finally:
        for j, view, fresh, prev_view, prev_fresh in saved:
            server.views[j] = view
            server.fresh[j] = fresh
            if prev_view is not None:
                server.previous_views[j] = prev_view
            if prev_fresh is not None:
                server.previous_fresh[j] = prev_fresh


class TestDegradedNeighbors:
    """``step(degraded)`` mixes a degraded neighbor's slots as the server's
    own parameters: bitwise the borrow-and-restore oracle above."""

    NEIGHBORS = (1, 2, 3, 4)

    def build(self, model, seed, strategy, robust):
        rng = np.random.default_rng(seed)
        return EdgeServer(
            node_id=0,
            model=model,
            X=rng.normal(size=(12, 2)),
            y=rng.normal(size=12),
            neighbors=self.NEIGHBORS,
            own_weight=0.2,
            neighbor_weights=[0.3, 0.1, 0.25, 0.15],
            alpha=0.05,
            initial_params=rng.normal(size=2),
            straggler_strategy=strategy,
            robust=RobustAggregationSpec.normalize(robust),
        )

    def scramble(self, server, rng):
        """Distinct views and random freshness on every layer that exists."""
        for j in self.NEIGHBORS:
            server.views[j] = rng.normal(size=2)
            server.fresh[j] = bool(rng.integers(2))
            if j in server.previous_views:
                server.previous_views[j] = rng.normal(size=2)
                server.previous_fresh[j] = bool(rng.integers(2))

    @pytest.mark.parametrize("robust", [None, "trimmed_mean:f=1"])
    @pytest.mark.parametrize("strategy", list(StragglerStrategy))
    @pytest.mark.parametrize("second_step", [False, True])
    def test_step_equals_the_borrow_and_restore_oracle(
        self, model, strategy, robust, second_step
    ):
        for seed in range(12):
            servers = [self.build(model, seed, strategy, robust) for _ in range(2)]
            rng_pair = [np.random.default_rng([seed, 1]) for _ in range(2)]
            for server, rng in zip(servers, rng_pair):
                if second_step:
                    self.scramble(server, rng)
                    server.step()
                    server.advance_views()
                self.scramble(server, rng)
            picks = np.random.default_rng([seed, 2]).integers(2, size=5)
            # Id 9 is no neighbor: a degraded set may name one, and it is ignored.
            degraded = frozenset(
                j for j, pick in zip(self.NEIGHBORS + (9,), picks) if pick
            )
            oracle, server = servers
            expected = borrow_and_restore_step(oracle, degraded)
            assert np.array_equal(server.step(degraded), expected)
            assert np.array_equal(server.params, oracle.params)
            assert np.array_equal(server.previous_params, oracle.previous_params)
            for layer in ("views", "fresh", "previous_views", "previous_fresh"):
                ours, theirs = getattr(server, layer), getattr(oracle, layer)
                assert ours.keys() == theirs.keys()
                assert all(np.array_equal(ours[j], theirs[j]) for j in ours)
