"""Unit semantics of the REWEIGHT straggler strategy at the server level."""

import numpy as np
import pytest

from repro.core.config import StragglerStrategy
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
