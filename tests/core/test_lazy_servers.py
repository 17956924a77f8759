"""The vectorized engine builds its ``EdgeServer`` objects only when read.

On ``engine="vectorized"`` the engine's arrays are the run state, so
``SNAPTrainer.servers`` is a view built on first read and filled by
``engine.sync_to_servers()``. These tests hold that the view is invisible:
whether and when it is built changes no digest and no server field, a
trainer nobody inspects constructs no server at all, and every check
``EdgeServer.__init__`` makes still fires at construction.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.core.checkpoint import restore_checkpoint, save_checkpoint
from repro.core.config import ShardWeighting, SNAPConfig
from repro.core.engine import VectorizedEngine
from repro.core.server import EdgeServer
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.models.logistic import LogisticRegression
from repro.testing.digest import capture_run, server_state_sha
from repro.testing.scenarios import ScenarioGen
from repro.topology.generators import ring_topology
from repro.weights.construction import metropolis_weights
from tests.core import test_engine_equivalence as equivalence

SCENARIOS = ScenarioGen(0).scenarios(25)


@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=[f"scenario{s.index}" for s in SCENARIOS]
)
def test_building_the_list_is_invisible(scenario):
    """Never read, read before the run (ingest and write-back), read after:
    one digest, and the late read's servers equal the eager run's."""
    never = scenario.build_trainer("vectorized")
    never_digest = capture_run(never)

    eager = scenario.build_trainer("vectorized")
    assert len(eager.servers) == eager.topology.n_nodes
    eager_digest = capture_run(eager)

    late = scenario.build_trainer("vectorized")
    late_digest = capture_run(late)
    assert late_digest == never_digest, never_digest.diff(late_digest)
    assert eager_digest == never_digest, never_digest.diff(eager_digest)
    observability = equivalence.TestObservability
    for ref, vec in zip(eager.servers, late.servers):
        observability._assert_same_fields(ref, vec)
    observability._assert_own_memory(late)


def test_checkpoint_of_an_unread_trainer_round_trips(tmp_path):
    """save_checkpoint of a trainer nobody read builds no list; restoring it
    and running on ends in the uninterrupted run's state."""
    scenario = SCENARIOS[0].with_overrides(max_rounds=12)
    uninterrupted = scenario.build_trainer("vectorized")
    expected = uninterrupted.run(stop_on_convergence=False)

    first = scenario.build_trainer("vectorized")
    first.run(max_rounds=5, stop_on_convergence=False)
    assert first._servers is None
    path = save_checkpoint(first, tmp_path / "unread.npz")
    assert first._servers is None

    resumed = scenario.build_trainer("vectorized")
    restore_checkpoint(resumed, path)
    result = resumed.run(max_rounds=7, stop_on_convergence=False)
    assert server_state_sha(resumed) == server_state_sha(uninterrupted)
    assert [r.mean_loss for r in result.rounds] == [
        r.mean_loss for r in expected.rounds[5:]
    ]
    assert np.array_equal(result.final_params, expected.final_params)


# -- construction checks ----------------------------------------------------------

N_NODES = 6


def _inputs(sizes=None):
    rng = np.random.default_rng(3)
    shards = []
    for size in sizes or [20] * N_NODES:
        X = rng.normal(size=(size, 4))
        shards.append(Dataset(X, (X[:, 0] > 0).astype(float)))
    return shards, ring_topology(N_NODES)


class _BoundedLogistic(LogisticRegression):
    """A model with a fixed Lipschitz bound, so empty shards reach the servers."""

    def __init__(self, n_features: int, bound: float):
        super().__init__(n_features)
        self._bound = bound

    def lipschitz_bound(self, Xs, scales) -> float:
        return self._bound


def _stray_weights(entries, sparse: bool):
    """Metropolis W on the ring with ``1e-9`` of mass moved onto ``entries``.

    ``check_weight_matrix`` (``atol=1e-7``) accepts it; each server's own
    support check (``> 1e-12``) does not.
    """
    weights = metropolis_weights(ring_topology(N_NODES))
    for i, j in entries:
        for a, b in ((i, j), (j, i)):
            weights[a, b] += 1e-9
            weights[a, a] -= 1e-9
    return csr_matrix(weights) if sparse else weights


def _case(name: str, engine: str):
    shards, topology = _inputs()
    model = LogisticRegression(4)
    config = SNAPConfig(engine=engine, optimize_weights=False, seed=1)
    weights = None
    if name == "alpha-config":
        # The derived step size is positive whenever it exists; an explicit
        # one is checked when the config is built, not when it is edited.
        config.alpha = -1.0
    elif name == "scale-empty-shard":
        shards, topology = _inputs([20, 20, 0, 20, 20, 20])
        model = _BoundedLogistic(4, 1.0)
        config.shard_weighting = ShardWeighting.SAMPLES
    elif name in ("stray-dense", "stray-sparse"):
        weights = _stray_weights([(2, 4), (2, 5)], name == "stray-sparse")
    elif name == "scale-before-later-stray":
        shards, topology = _inputs([20, 0, 20, 20, 20, 20])
        model = _BoundedLogistic(4, 1.0)
        config.shard_weighting = ShardWeighting.SAMPLES
        weights = _stray_weights([(2, 4)], sparse=True)
    elif name == "stray-before-later-scale":
        shards, topology = _inputs([20, 20, 20, 20, 0, 20])
        model = _BoundedLogistic(4, 1.0)
        config.shard_weighting = ShardWeighting.SAMPLES
        weights = _stray_weights([(1, 3)], sparse=False)
    return model, shards, topology, config, weights


CASES = (
    "alpha-config",
    "scale-empty-shard",
    "stray-dense",
    "stray-sparse",
    "scale-before-later-stray",
    "stray-before-later-scale",
)


def _construction_error(engine: str, name: str) -> str:
    model, shards, topology, config, weights = _case(name, engine)
    with pytest.raises(ConfigurationError) as raised:
        SNAPTrainer(model, shards, topology, config, weight_matrix=weights)
    return str(raised.value)


@pytest.mark.parametrize("name", CASES)
def test_every_server_check_fires_with_no_server_built(name, monkeypatch):
    """The reference engine's EdgeServer raises; the vectorized trainer raises
    the same error at construction without constructing one."""
    expected = _construction_error("reference", name)
    assert "server" in expected or "must be > 0" in expected

    def refuse(self, *args, **kwargs):
        raise AssertionError("EdgeServer built at construction")

    monkeypatch.setattr(EdgeServer, "__init__", refuse)
    assert _construction_error("vectorized", name) == expected


def test_weights_are_the_floats_the_server_rows_hold():
    """On unsorted CSR storage holding every entry twice, the engine and
    every server mix with the sum of the two copies (the matrix
    ``check_weight_matrix`` validated), so the engines match bit for bit."""
    shards, topology = _inputs()
    dense = metropolis_weights(topology)
    rows, columns = np.nonzero(dense)
    values = dense[rows, columns]
    rows, columns = np.concatenate([rows, rows]), np.concatenate([columns, columns])
    values = np.concatenate([0.25 * values, 0.75 * values])
    order = np.lexsort((-columns, rows))  # descending columns within a row
    indptr = np.searchsorted(rows[order], np.arange(N_NODES + 1))
    weights = csr_matrix(
        (values[order], columns[order], indptr), shape=(N_NODES, N_NODES)
    )
    assert not weights.has_sorted_indices

    def run(engine):
        config = SNAPConfig(engine=engine, optimize_weights=False, seed=2, max_rounds=6)
        trainer = SNAPTrainer(
            LogisticRegression(4), shards, topology, config, weight_matrix=weights
        )
        return trainer, capture_run(trainer)

    (_, expected), (vectorized, digest) = run("reference"), run("vectorized")
    assert digest == expected, expected.diff(digest)
    summed = np.zeros((N_NODES, N_NODES))
    np.add.at(summed, (rows, columns), values)
    mixing = vectorized.engine._mix_current
    for server in vectorized.servers:
        i = server.node_id
        lo, hi = mixing.indptr[i : i + 2]
        held = [server.own_weight, *server.neighbor_weights]
        assert held == [summed[i, i], *summed[i, list(server.neighbors)]]
        assert mixing.data[lo:hi].tolist() == held


# -- the count guard ----------------------------------------------------------------


def test_an_uninspected_run_builds_no_server(monkeypatch):
    """The harness's path — a round observer, a streaming digest and the
    strict monitor — constructs no EdgeServer and writes no server row; the
    first read builds N, a second read none."""
    built, written = [], []
    init, sync = EdgeServer.__init__, VectorizedEngine.sync_to_servers
    syncing = []

    def counted_init(self, *args, **kwargs):
        built.append(kwargs["node_id"])
        init(self, *args, **kwargs)

    def counted_setattr(self, name, value):
        if name == "params" and syncing:
            written.append(self.node_id)
        object.__setattr__(self, name, value)

    def counted_sync(self):
        syncing.append(True)
        try:
            sync(self)
        finally:
            syncing.pop()

    monkeypatch.setattr(EdgeServer, "__init__", counted_init)
    monkeypatch.setattr(EdgeServer, "__setattr__", counted_setattr)
    monkeypatch.setattr(VectorizedEngine, "sync_to_servers", counted_sync)

    shards, topology = _inputs()
    config = SNAPConfig(
        engine="vectorized",
        optimize_weights=False,
        sparse_weights=True,
        invariants="strict",
        seed=7,
        max_rounds=8,
    )
    trainer = SNAPTrainer(LogisticRegression(4), shards, topology, config)
    records = []
    trainer.add_round_observer(records.append)
    capture_run(trainer, streaming=True, test_set=shards[0], eval_every=4)
    trainer.mean_params()
    assert len(records) == 8
    assert built == [] and written == []

    servers = trainer.servers
    assert built == list(range(N_NODES))
    assert sorted(written) == list(range(N_NODES))
    assert trainer.servers is servers
    assert built == list(range(N_NODES))
    assert sorted(written) == list(range(N_NODES))


def test_swaps_build_no_server(monkeypatch):
    """Swaps that prune, re-solve on churn, drop and re-add links re-index
    the engine's arrays: no EdgeServer is constructed and nothing is
    written back."""
    from repro.core import engine as engine_module
    from tests.core.test_topology_readd import (
        churn_trainer,
        manual_swap_trainer,
        run_manual_drop_readd,
    )

    built, scattered = [], []
    init, scatter = EdgeServer.__init__, engine_module.scatter_state

    def counted_init(self, *args, **kwargs):
        built.append(kwargs["node_id"])
        init(self, *args, **kwargs)

    def counted_scatter(state, servers):
        scattered.append(len(servers))
        scatter(state, servers)

    monkeypatch.setattr(EdgeServer, "__init__", counted_init)
    monkeypatch.setattr(engine_module, "scatter_state", counted_scatter)
    churn = churn_trainer("vectorized")
    capture_run(churn, streaming=True)
    manual = manual_swap_trainer("vectorized")
    run_manual_drop_readd(manual)
    swaps = churn._topology_controller.swaps + manual._topology_controller.swaps
    assert any(swap.pruned_edges for swap in swaps)
    assert any(swap.reason == "churn" for swap in swaps)
    assert any(swap.added_edges for swap in swaps)
    assert built == [] and scattered == []


def test_a_swap_between_runs_restarts_built_servers():
    """A swap applied between two runs restarts the servers a caller built
    as well as the arrays, because the next run ingests those servers."""
    from repro.testing import RunDigest
    from tests.core.test_topology_readd import manual_swap_trainer

    digests = []
    for engine in ("reference", "vectorized"):
        trainer = manual_swap_trainer(engine)
        trainer.run(stop_on_convergence=False)
        assert trainer.servers  # built here on the vectorized engine
        drop = trainer._topology_controller.propose(
            trainer.rounds_completed, reason="membership", drop_candidates=((0, 3),)
        )
        trainer.apply_swap(drop)
        result = trainer.run(max_rounds=3, stop_on_convergence=False)
        digests.append(RunDigest.capture(trainer, result))
    assert digests[0] == digests[1], digests[0].diff(digests[1])
