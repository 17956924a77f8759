"""Elastic link re-adds through the trainer stack.

The trainer's churn-recovery re-add path behind the ``topology_readd``
config gate, the gate's default-off protection of the pinned prune-only
differential scenarios, and what a swap does to the links it keeps and
adds. (The re-index of the run state itself is held by
``tests/properties/test_swap_reindex_properties.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SNAPConfig
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
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


def churn_trainer(readd: bool, engine: str = "reference") -> SNAPTrainer:
    """The churn run, built and not yet run.

    Periodic prune at round 5 retires near-zero hub chords; node 0 goes
    down at round 7 and recovers at 8, so the churn re-solve fires with
    node 0's pruned links as re-add candidates.
    """
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
    return build_trainer(
        ring_with_chords(12, HUB_CHORDS),
        config,
        fault_plan=FaultPlan(nodes=ScheduledNodeFailures({7: [0]})),
    )


def run_with_churn(readd: bool, engine: str = "reference") -> SNAPTrainer:
    trainer = churn_trainer(readd, engine)
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


def manual_swap_trainer(engine: str = "reference") -> SNAPTrainer:
    """An adaptive trainer whose controller never fires by itself, so the
    caller proposes and applies its swaps (chord ``(0, 3)`` to drop)."""
    config = SNAPConfig(
        engine=engine,
        optimize_weights=True,
        weight_iterations=120,
        adaptive_topology=True,
        topology_reoptimize_every=10_000,
        topology_prune_threshold=0.0,
        max_rounds=4,
        seed=3,
    )
    return build_trainer(ring_with_chords(8, [(0, 3), (2, 6)]), config)


class TestManualSeededSwap:
    def test_readd_seeds_views_with_the_peers_exact_parameters(self):
        trainer = manual_swap_trainer()
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


class TestSemiSyncReadd:
    """A re-added link gets the semi-sync engine's arrival ledgers (it had
    none, and the barrier raised ``KeyError``); at τ=0 the re-adding runs
    then land on the reference engine's golden digests."""

    @pytest.mark.parametrize("run", ["churn-readd", "manual-drop-readd"])
    def test_readd_runs_match_the_reference_pins(self, run):
        from tests.core import test_swap_pins as pins

        capture = {
            "churn-readd": pins.churn_readd_digest,
            "manual-drop-readd": pins.manual_swap_digest,
        }[run]
        assert pins.pinned(capture("semisync")) == pins.GOLDEN[run]
