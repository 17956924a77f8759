"""Elastic link re-adds through the trainer stack.

Three layers, bottom up: the server's seeded ``swap_topology`` contract
(a new link must arrive in the round-zero "exact copy" condition), the
trainer's churn-recovery re-add path behind the ``topology_readd`` config
gate, and the gate's default-off protection of the pinned prune-only
differential scenarios.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SNAPConfig
from repro.core.server import EdgeServer
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError, ProtocolError
from repro.faults import FaultPlan
from repro.models.logistic import LogisticRegression
from repro.topology.failures import ScheduledNodeFailures
from repro.topology.graph import Topology


def ring_with_chords(n: int, chords) -> Topology:
    edges = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    return Topology(n, edges)


#: Parallel hub chords the optimizer drives to (near) zero weight — the
#: prune pool the churn-recovery re-add draws from (all incident to 0).
HUB_CHORDS = [(0, 2), (0, 4), (0, 6), (0, 8), (0, 10)]


def make_shards(n_nodes: int, n_features: int = 5, n_samples: int = 30):
    rng = np.random.default_rng([13, n_nodes])
    shards = []
    for _ in range(n_nodes):
        X = rng.normal(size=(n_samples, n_features))
        w = rng.normal(size=n_features)
        y = (X @ w + 0.3 * rng.normal(size=n_samples) > 0).astype(float)
        shards.append(Dataset(X, y))
    return shards


def build_trainer(topology, config, **kwargs):
    return SNAPTrainer(
        LogisticRegression(5),
        make_shards(topology.n_nodes),
        topology,
        config,
        **kwargs,
    )


class TestConfigGate:
    def test_readd_requires_the_adaptive_controller(self):
        with pytest.raises(ConfigurationError, match="topology_readd"):
            SNAPConfig(topology_readd=True)

    def test_readd_with_adaptive_topology_is_accepted(self):
        config = SNAPConfig(adaptive_topology=True, topology_readd=True)
        assert config.topology_readd

    def test_default_is_off(self):
        assert SNAPConfig().topology_readd is False


class TestSeededServerSwap:
    def make_server(self, rng):
        X = rng.normal(size=(20, 5))
        w = rng.normal(size=5)
        y = (X @ w > 0).astype(float)
        model = LogisticRegression(5)
        return EdgeServer(
            node_id=0,
            model=model,
            X=X,
            y=y,
            neighbors=(1, 2),
            own_weight=0.6,
            neighbor_weights=[0.2, 0.2],
            alpha=0.1,
            initial_params=np.zeros(model.n_params),
        )

    #: Own weight and the weights of neighbors (1, 2, 3) after the swap.
    GROWN = (0.4, [0.2, 0.2, 0.2])

    def test_new_link_without_a_seed_is_rejected(self, rng):
        server = self.make_server(rng)
        with pytest.raises(ProtocolError, match="without seed views"):
            server.swap_topology((1, 2, 3), *self.GROWN, 0.1)

    def test_seeds_for_surviving_links_are_rejected(self, rng):
        server = self.make_server(rng)
        seeds = {3: np.ones(6), 1: np.ones(6)}
        with pytest.raises(ProtocolError, match="not.*new"):
            server.swap_topology((1, 2, 3), *self.GROWN, 0.1, new_views=seeds)

    def test_seeded_link_starts_in_the_round_zero_condition(self, rng):
        server = self.make_server(rng)
        seed = rng.normal(size=server.params.shape)
        server.swap_topology((1, 2, 3), *self.GROWN, 0.1, new_views={3: seed})
        # views holds the peer's exact parameters, last_sent our own, and
        # the link is fresh — identical to how round zero wires a link.
        np.testing.assert_array_equal(server.views[3], seed)
        assert server.views[3] is not seed  # defensive copy
        np.testing.assert_array_equal(server.last_sent[3], server.params)
        assert server.fresh[3]
        assert set(server.neighbors) == {1, 2, 3}


def run_with_churn(readd: bool, engine: str = "reference") -> SNAPTrainer:
    # Periodic prune at round 5 retires near-zero hub chords; node 0 goes
    # down at round 7 and recovers at 8, so the churn re-solve fires with
    # node 0's pruned links as re-add candidates.
    config = SNAPConfig(
        engine=engine,
        invariants="strict",
        optimize_weights=True,
        weight_iterations=300,
        adaptive_topology=True,
        topology_readd=readd,
        topology_reoptimize_every=5,
        topology_prune_threshold=0.05,
        max_rounds=9,
        seed=11,
    )
    trainer = build_trainer(
        ring_with_chords(12, HUB_CHORDS),
        config,
        fault_plan=FaultPlan(nodes=ScheduledNodeFailures({7: [0]})),
    )
    trainer.run(stop_on_convergence=False)
    return trainer


class TestTrainerReaddPath:
    def run_with_churn(self, readd: bool) -> SNAPTrainer:
        return run_with_churn(readd)

    @pytest.fixture(scope="class")
    def readd_trainer(self):
        return self.run_with_churn(readd=True)

    def test_churn_recovery_readds_the_hub_links(self, readd_trainer):
        controller = readd_trainer._topology_controller
        churn_swaps = [s for s in controller.swaps if s.reason == "churn"]
        assert churn_swaps
        added = [edge for swap in churn_swaps for edge in swap.added_edges]
        assert added
        assert all(0 in edge for edge in added)
        for edge in added:
            assert edge in readd_trainer.topology.edges

    def test_every_layer_matches_the_regrown_topology(self, readd_trainer):
        topology = readd_trainer.topology
        for server in readd_trainer.servers:
            expected = set(topology.neighbors(server.node_id))
            assert set(server.neighbors) == expected
            assert set(server.views) == expected
            assert set(server.last_sent) == expected

    def test_strict_monitor_revalidated_every_swap(self, readd_trainer):
        controller = readd_trainer._topology_controller
        assert readd_trainer.monitor.checks["topology-swap"] == len(
            controller.swaps
        )

    def test_gate_off_keeps_the_prune_only_behaviour(self):
        # The PR-8 differential scenarios are pinned to prune-only swaps;
        # with the gate at its default the same churn run re-adds nothing.
        trainer = self.run_with_churn(readd=False)
        controller = trainer._topology_controller
        assert all(swap.added_edges == () for swap in controller.swaps)
        assert controller.pruned_ever  # the pool exists, untouched


class TestManualSeededSwap:
    def test_readd_seeds_views_with_the_peers_exact_parameters(self):
        config = SNAPConfig(
            engine="reference",
            optimize_weights=True,
            weight_iterations=120,
            adaptive_topology=True,
            topology_reoptimize_every=10_000,
            topology_prune_threshold=0.0,
            max_rounds=4,
            seed=3,
        )
        trainer = build_trainer(ring_with_chords(8, [(0, 3), (2, 6)]), config)
        trainer.run(stop_on_convergence=False)
        controller = trainer._topology_controller

        drop = controller.propose(
            5, reason="membership", drop_candidates=((0, 3),)
        )
        trainer._apply_topology_swap(drop)
        assert 3 not in trainer.servers[0].views

        grow = controller.propose(
            6, reason="membership", add_candidates=((0, 3),)
        )
        assert grow.added_edges == ((0, 3),)
        trainer._apply_topology_swap(grow)
        np.testing.assert_array_equal(
            trainer.servers[0].views[3], trainer.servers[3].params
        )
        np.testing.assert_array_equal(
            trainer.servers[3].views[0], trainer.servers[0].params
        )
        np.testing.assert_array_equal(
            trainer.servers[0].last_sent[3], trainer.servers[0].params
        )
        assert trainer.servers[0].fresh[3]
        assert trainer.servers[3].fresh[0]


class TestStalenessAcrossSwaps:
    """A swap moves the staleness ages onto the new links: a surviving link
    keeps its age, an added one starts at 0."""

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_ages_survive_the_prune_and_the_readd_swap(self, engine, monkeypatch):
        seen = []
        apply = SNAPTrainer._apply_topology_swap

        def apply_with_planted_ages(trainer, swap):
            # Distinct nonzero ages, so a dropped or misplaced carry-over shows.
            trainer._staleness[:] = np.arange(1, trainer._staleness.size + 1)
            before = trainer.link_staleness
            apply(trainer, swap)
            seen.append((swap, before, trainer.link_staleness))

        monkeypatch.setattr(
            SNAPTrainer, "_apply_topology_swap", apply_with_planted_ages
        )
        run_with_churn(readd=True, engine=engine)
        assert any(swap.pruned_edges for swap, _, _ in seen)
        assert any(swap.added_edges for swap, _, _ in seen)
        for swap, before, after in seen:
            expected = {(u, v) for u, v in swap.topology.edges}
            assert set(after) == expected | {(v, u) for u, v in expected}
            added = {(u, v) for u, v in swap.added_edges}
            added |= {(v, u) for u, v in added}
            for link, age in after.items():
                assert (link in added) != (link in before)
                assert age == (0 if link in added else before[link])
