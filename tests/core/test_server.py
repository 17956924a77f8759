"""Tests for repro.core.server.EdgeServer."""

import numpy as np
import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.core.server import EdgeServer
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.exceptions import ConfigurationError, DataError, ProtocolError
from repro.models.logistic import LogisticRegression
from repro.models.mlp import MLPClassifier
from repro.models.ridge import RidgeRegression
from repro.models.softmax import SoftmaxRegression
from repro.models.svm import LinearSVM
from repro.network.messages import ParameterUpdate
from repro.topology.generators import complete_topology


@pytest.fixture
def model():
    return RidgeRegression(n_features=2, regularization=0.1, fit_intercept=False)


@pytest.fixture
def data(rng):
    X = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    return X, y


def make_server(model, data, node_id=0, neighbors=(1, 2), alpha=0.1):
    X, y = data
    share = 0.2
    return EdgeServer(
        node_id=node_id,
        model=model,
        X=X,
        y=y,
        neighbors=tuple(neighbors),
        own_weight=1.0 - share * len(neighbors),
        neighbor_weights=[share] * len(neighbors),
        alpha=alpha,
        initial_params=np.zeros(model.n_params),
    )


class TestConstruction:
    def test_initial_state(self, model, data):
        server = make_server(model, data)
        np.testing.assert_array_equal(server.params, np.zeros(2))
        assert server.previous_params is None
        assert set(server.views) == {1, 2}
        assert set(server.last_sent) == {1, 2}
        assert server.iteration == 0

    def test_neighbor_weights_must_align_with_neighbors(self, model, data):
        X, y = data
        with pytest.raises(ConfigurationError, match="2 neighbor weights for 1"):
            EdgeServer(
                node_id=0,
                model=model,
                X=X,
                y=y,
                neighbors=(1,),
                own_weight=0.6,
                neighbor_weights=[0.2, 0.2],
                alpha=0.1,
                initial_params=np.zeros(model.n_params),
            )

    def test_bad_alpha_rejected(self, model, data):
        with pytest.raises(ConfigurationError):
            make_server(model, data, alpha=0.0)


class TestFirstStep:
    def test_matches_equation_8_first_line(self, model, data):
        server = make_server(model, data)
        # All parties start at zero: mix = 0, so x^1 = -alpha * grad(0).
        gradient = server.local_gradient(np.zeros(2))
        new = server.step()
        np.testing.assert_allclose(new, -0.1 * gradient)
        assert server.iteration == 1
        np.testing.assert_array_equal(server.previous_params, np.zeros(2))

    def test_first_step_uses_neighbor_views(self, model, data):
        server = make_server(model, data)
        server.views[1] = np.array([1.0, 0.0])
        server.views[2] = np.array([0.0, 2.0])
        gradient = server.local_gradient(np.zeros(2))
        new = server.step()
        expected = 0.2 * np.array([1.0, 0.0]) + 0.2 * np.array([0.0, 2.0]) - 0.1 * gradient
        np.testing.assert_allclose(new, expected)


class TestSecondStep:
    def test_requires_advanced_views(self, model, data):
        server = make_server(model, data)
        server.step()
        with pytest.raises(ProtocolError):
            server.step()  # previous_views never populated

    def test_matches_equation_8_second_line(self, model, data):
        server = make_server(model, data)
        w_self = server.own_weight
        x0 = server.params.copy()
        g0 = server.local_gradient(x0)
        x1 = server.step()
        server.advance_views()  # views (still x0) become the previous layer
        g1 = server.local_gradient(x1)
        x2 = server.step()
        # Views never updated: neighbor terms use x0 in both layers.
        mixed_current = w_self * x1 + 0.2 * server.views[1] + 0.2 * server.views[2]
        mixed_previous = (
            0.5 * (w_self + 1.0) * x0
            + 0.1 * server.previous_views[1]
            + 0.1 * server.previous_views[2]
        )
        expected = x1 + mixed_current - mixed_previous - 0.1 * (g1 - g0)
        np.testing.assert_allclose(x2, expected)


@pytest.fixture
def trainer(model, data):
    """A three-server SNAP-0 trainer whose server 0 has neighbors 1 and 2."""
    X, y = data
    shards = iid_partition(Dataset(X, y), 3, seed=0)
    config = SNAPConfig(compressor="changed_only", optimize_weights=False, seed=0)
    return SNAPTrainer(model, shards, complete_topology(3), config=config)


def send(trainer, round_index, delivered=lambda neighbor: True):
    """One ``send_round`` of server 0; returns ``{neighbor: message}``."""
    sent = {}

    def transmit(source, neighbor, message, stage):
        sent[neighbor] = message
        return delivered(neighbor)

    trainer.send_round(trainer.servers[0], round_index, frozenset(), transmit)
    return sent


def set_state(server, params, held):
    """Give ``server`` its own ``params`` and what each neighbor ``held``."""
    server.params = np.array(params)
    for neighbor, values in held.items():
        server.last_sent[neighbor][:] = values


class TestCommunication:
    def test_send_round_selects_against_neighbor_state(self, trainer):
        server = trainer.servers[0]
        set_state(server, [1.0, 2.0], {1: [1.0, 0.0], 2: [0.0, 0.0]})
        sent = send(trainer, 1)
        np.testing.assert_array_equal(sent[1].indices, [1])
        np.testing.assert_array_equal(sent[1].values, [2.0])
        np.testing.assert_array_equal(sent[2].indices, [0, 1])

    def test_last_sent_advances_only_on_delivery(self, trainer):
        server = trainer.servers[0]
        set_state(server, [1.0, 2.0], {1: [0.0, 0.0], 2: [0.0, 0.0]})
        first = send(trainer, 1, delivered=lambda neighbor: False)
        np.testing.assert_array_equal(server.last_sent[1], [0.0, 0.0])
        # Not delivered: the next message repeats everything.
        second = send(trainer, 2)
        np.testing.assert_array_equal(second[1].indices, first[1].indices)
        np.testing.assert_array_equal(server.last_sent[1], [1.0, 2.0])
        assert send(trainer, 3)[1].n_sent == 0

    def test_per_neighbor_state_is_independent(self, trainer):
        server = trainer.servers[0]
        set_state(server, [1.0, 2.0], {1: [0.0, 0.0], 2: [0.0, 0.0]})
        send(trainer, 1, delivered=lambda neighbor: neighbor == 1)
        sent = send(trainer, 2)
        assert sent[1].n_sent == 0
        # Neighbor 2 never got anything: still a full update pending.
        assert sent[2].n_sent == 2

    def test_unknown_neighbor_rejected(self, model, data):
        server = make_server(model, data)
        with pytest.raises(ProtocolError):
            server.mark_delivered(
                9, ParameterUpdate.dense(0, 1, np.zeros(2))
            )

    def test_receive_update_overlays_view(self, model, data):
        server = make_server(model, data)
        update = ParameterUpdate(
            sender=1,
            round_index=1,
            total_params=2,
            indices=np.array([1]),
            values=np.array([7.0]),
        )
        server.receive_update(update)
        np.testing.assert_array_equal(server.views[1], [0.0, 7.0])

    def test_receive_from_non_neighbor_rejected(self, model, data):
        server = make_server(model, data)
        with pytest.raises(ProtocolError):
            server.receive_update(ParameterUpdate.dense(9, 1, np.zeros(2)))

    def test_advance_views_shares_until_a_delivery(self, model, data):
        """The shift copies no array; a delivery swaps in a new current view
        and leaves the previous layer as it was."""
        server = make_server(model, data)
        server.advance_views()
        assert server.previous_views[1] is server.views[1]
        server.receive_update(
            ParameterUpdate(
                sender=1,
                round_index=1,
                total_params=2,
                indices=np.array([0]),
                values=np.array([99.0]),
            )
        )
        np.testing.assert_array_equal(server.views[1], [99.0, 0.0])
        np.testing.assert_array_equal(server.previous_views[1], [0.0, 0.0])


def _family(name, rng):
    """(model, X, y) for each of the five model families, ragged-free and small."""
    if name == "ridge":
        return RidgeRegression(4), rng.normal(size=(15, 4)), rng.normal(size=15)
    if name == "svm":
        return LinearSVM(4), rng.normal(size=(15, 4)), rng.integers(0, 2, size=15)
    if name == "logistic":
        return (
            LogisticRegression(4),
            rng.normal(size=(15, 4)),
            rng.integers(0, 2, size=15).astype(float),
        )
    if name == "softmax":
        return (
            SoftmaxRegression(4, 3),
            rng.normal(size=(15, 4)),
            rng.integers(0, 3, size=15),
        )
    return MLPClassifier([4, 5, 3]), rng.normal(size=(15, 4)), rng.integers(0, 3, size=15)


FAMILIES = ("ridge", "svm", "logistic", "softmax", "mlp")


class TestPreparedShard:
    """``local_loss`` / ``local_gradient`` go through the prepared-shard API.

    They must stay bitwise ``scale * model.loss / gradient(params, X, y)`` —
    what they computed before — prepare lazily, and re-prepare after
    :meth:`EdgeServer.swap_data`.
    """

    @staticmethod
    def _server(model, X, y, scale=1.0):
        return EdgeServer(
            node_id=0,
            model=model,
            X=X,
            y=y,
            neighbors=(1,),
            own_weight=0.6,
            neighbor_weights=[0.4],
            alpha=0.1,
            initial_params=model.init_params(3),
            objective_scale=scale,
        )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("scale", [1.0, 1.7])
    def test_bitwise_what_the_direct_calls_give(self, family, scale, rng):
        model, X, y = _family(family, rng)
        server = self._server(model, X, y, scale)
        for _ in range(3):
            params = rng.normal(size=model.n_params)
            loss = server.local_loss(params)
            assert type(loss) is float
            assert loss == scale * model.loss(params, X, y)
            assert np.array_equal(
                server.local_gradient(params), scale * model.gradient(params, X, y)
            )
        assert server.local_loss() == scale * model.loss(server.params, X, y)
        # The gradient is the caller's to keep: not a view of model scratch.
        first = server.local_gradient(server.params)
        kept = first.copy()
        server.local_gradient(rng.normal(size=model.n_params))
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_step_is_bitwise_the_direct_call_recursion(self, family, rng):
        """Two EXTRA steps equal the same steps on ``model.gradient`` directly."""
        model, X, y = _family(family, rng)
        server = self._server(model, X, y)
        x0 = server.params.copy()
        w_own, w_peer, alpha = 0.6, 0.4, 0.1
        g0 = model.gradient(x0, X, y)
        x1 = (w_own * x0 + w_peer * x0) - alpha * g0
        assert np.array_equal(server.step(), x1)
        server.advance_views()
        g1 = model.gradient(x1, X, y)
        mixed_current = w_own * x1 + w_peer * x0
        mixed_previous = 0.5 * (w_own + 1.0) * x0 + 0.5 * w_peer * x0
        x2 = x1 + mixed_current - mixed_previous - alpha * (g1 - g0)
        assert np.array_equal(server.step(), x2)

    def test_preparation_is_lazy_and_happens_once(self, rng):
        model, X, y = _family("svm", rng)
        calls = []
        original = model.prepare_shards
        model.prepare_shards = lambda shards: calls.append(1) or original(shards)
        server = self._server(model, X, y)
        server.advance_views()
        assert calls == []  # construction and view shifts never prepare
        server.local_loss()
        server.local_gradient(server.params)
        server.step()
        assert calls == [1]

    def test_wrong_shaped_params_still_rejected(self, rng):
        model, X, y = _family("svm", rng)
        server = self._server(model, X, y)
        with pytest.raises(DataError):
            server.local_loss(np.zeros(model.n_params + 1))
        with pytest.raises(DataError):
            server.local_gradient(np.zeros((model.n_params, 1)))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_swap_data_replaces_what_is_evaluated(self, family, rng):
        model, X, y = _family(family, rng)
        server = self._server(model, X, y)
        params = rng.normal(size=model.n_params)
        server.local_loss(params)  # prepared on the old shard
        _, X2, y2 = _family(family, rng)
        server.swap_data(X2, y2)
        assert server.X is not X and np.array_equal(server.X, X2)
        assert server.local_loss(params) == model.loss(params, X2, y2)
        assert np.array_equal(
            server.local_gradient(params), model.gradient(params, X2, y2)
        )

    def test_shard_cannot_be_replaced_behind_the_prepared_copy(self, rng):
        model, X, y = _family("ridge", rng)
        server = self._server(model, X, y)
        with pytest.raises(AttributeError):
            server.X = X[:5]
        with pytest.raises(AttributeError):
            server.y = y[:5]

    def test_bad_shard_raises_at_first_evaluation(self, rng):
        model = LinearSVM(4)
        server = self._server(model, rng.normal(size=(6, 4)), np.arange(6.0))
        with pytest.raises(DataError):
            server.local_loss()
