"""Elastic link re-adds through the trainer stack.

A link comes back only through the fleet's membership path: the
controller's ``propose(add_candidates=...)`` applied with
``_apply_topology_swap``, which these tests call by hand (a drop of chord
``(0, 3)`` and its re-add). What a swap does to the links it keeps and adds
is checked here; a churn recovery re-solves on the pruned topology and adds
nothing back. (The re-index of the run state itself is held by
``tests/properties/test_swap_reindex_properties.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SNAPConfig
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.faults import CrashRestartSchedule, FaultPlan
from repro.models.logistic import LogisticRegression
from repro.testing.digest import capture_run
from repro.topology.graph import Topology


def ring_with_chords(n: int, chords) -> Topology:
    edges = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    return Topology(n, edges)


#: Parallel hub chords the optimizer drives to (near) zero weight (all
#: incident to 0): the periodic prune of :func:`churn_trainer` retires them.
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


def churn_trainer(engine: str = "reference") -> SNAPTrainer:
    """The prune-only churn run, built and not yet run.

    Periodic prune at round 5 retires near-zero hub chords; node 0 goes
    down at round 7 and recovers at 8, so the churn re-solve fires on the
    pruned topology.
    """
    config = SNAPConfig(
        engine=engine,
        invariants="strict",
        optimize_weights=True,
        weight_iterations=300,
        adaptive_topology=True,
        topology_reoptimize_every=5,
        topology_prune_threshold=0.05,
        max_rounds=9,
        seed=11,
    )
    return build_trainer(
        ring_with_chords(12, HUB_CHORDS),
        config,
        fault_plan=FaultPlan(nodes=CrashRestartSchedule({0: [(7, 7)]})),
    )


def manual_swap_trainer(engine: str = "reference", **overrides) -> SNAPTrainer:
    """An adaptive trainer whose controller never fires by itself, so the
    caller proposes and applies its swaps (chord ``(0, 3)`` to drop)."""
    settings = dict(
        engine=engine,
        optimize_weights=True,
        weight_iterations=120,
        adaptive_topology=True,
        topology_reoptimize_every=10_000,
        topology_prune_threshold=0.0,
        max_rounds=4,
        seed=3,
    )
    settings.update(overrides)
    return build_trainer(ring_with_chords(8, [(0, 3), (2, 6)]), SNAPConfig(**settings))


def run_manual_drop_readd(trainer: SNAPTrainer):
    """Four rounds, drop chord (0, 3), three rounds, re-add it, four rounds.

    Returns the last ``run``'s result.
    """
    trainer.run(stop_on_convergence=False)
    controller = trainer._topology_controller
    drop = controller.propose(
        trainer.rounds_completed, reason="membership", drop_candidates=((0, 3),)
    )
    assert drop.pruned_edges == ((0, 3),)
    trainer._apply_topology_swap(drop)
    trainer.run(max_rounds=3, stop_on_convergence=False)
    grow = controller.propose(
        trainer.rounds_completed, reason="membership", add_candidates=((0, 3),)
    )
    assert grow.added_edges == ((0, 3),)
    trainer._apply_topology_swap(grow)
    return trainer.run(max_rounds=4, stop_on_convergence=False)


class TestTrainerReaddPath:
    @pytest.fixture(scope="class")
    def readd_trainer(self):
        trainer = manual_swap_trainer(invariants="strict")
        run_manual_drop_readd(trainer)
        return trainer

    def test_every_layer_matches_the_regrown_topology(self, readd_trainer):
        topology = readd_trainer.topology
        assert topology.has_edge(0, 3)
        for server in readd_trainer.servers:
            expected = set(topology.neighbors(server.node_id))
            assert set(server.neighbors) == expected
            assert set(server.views) == expected
            assert set(server.last_sent) == expected

    def test_strict_monitor_revalidated_every_swap(self, readd_trainer):
        assert readd_trainer.monitor.checks["topology-swap"] == 2


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
        run_manual_drop_readd(manual_swap_trainer(engine))
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
    none, and the barrier raised ``KeyError``); at τ=0 the swapping runs
    then land on the reference engine's digests: the golden pin of the
    manual drop and re-add, and the reference run of the prune-only churn."""

    @pytest.mark.parametrize("run", ["churn-prune", "manual-drop-readd"])
    def test_readd_runs_match_the_reference_pins(self, run):
        from tests.core import test_swap_pins as pins

        if run == "churn-prune":
            expected = pins.pinned(capture_run(churn_trainer("reference")))
            digest = capture_run(churn_trainer("semisync"))
        else:
            expected = pins.GOLDEN[run]
            digest = pins.manual_swap_digest("semisync")
        assert pins.pinned(digest) == expected
