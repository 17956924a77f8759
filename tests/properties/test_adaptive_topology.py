"""Properties of the adaptive topology runtime.

Three contracts pin the runtime down:

* **Zero-weight pruning is trajectory-free.** A link whose mixing weight is
  exactly zero contributes nothing to the EXTRA recursion, so removing it
  changes no iterate — only the byte ledger (the pruned link stops paying
  for frames). This is the semantic license behind the online pruning rule.
* **An idle controller is a bitwise no-op.** With nothing to prune and no
  budget pressure the adaptive run's full :class:`RunDigest` equals the
  non-adaptive run's: arming the controller costs nothing until it acts.
* **A swap leaves every layer consistent.** Server link state, the
  staleness ledger, per-edge compressor state, the topology the fault plan
  is asked about, and the step size all agree with the pruned topology afterwards, and the invariant
  monitor re-validated the swapped matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.spec import CompressorSpec
from repro.core.config import SNAPConfig
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.models.logistic import LogisticRegression
from repro.testing.digest import capture_run
from repro.topology.graph import Topology
from repro.weights.adaptive import (
    TopologyController,
    prune_links,
)
from repro.weights.construction import metropolis_weights
from repro.weights.optimizer import optimize_weight_matrix


def ring_with_chords(n: int, chords) -> Topology:
    edges = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    return Topology(n, edges)


#: Five parallel hub chords: the optimizer drives some of their weights to
#: (near) zero, which is exactly the regime the pruning rule targets.
HUB_CHORDS = [(0, 2), (0, 4), (0, 6), (0, 8), (0, 10)]


def make_shards(n_nodes: int, n_features: int = 5, n_samples: int = 30):
    rng = np.random.default_rng([7, n_nodes])
    shards = []
    for _ in range(n_nodes):
        X = rng.normal(size=(n_samples, n_features))
        w = rng.normal(size=n_features)
        y = (X @ w + 0.3 * rng.normal(size=n_samples) > 0).astype(float)
        shards.append(Dataset(X, y))
    return shards


def build_trainer(topology, config, weight_matrix=None):
    return SNAPTrainer(
        LogisticRegression(5),
        make_shards(topology.n_nodes),
        topology,
        config,
        weight_matrix=weight_matrix,
    )


class TestPruneLinks:
    def test_only_below_threshold_links_are_candidates(self):
        topo = ring_with_chords(12, HUB_CHORDS)
        result = optimize_weight_matrix(topo, iterations=300)
        pruned, removed = prune_links(topo, result.matrix, 0.05)
        assert removed  # the hub chords include near-zero links
        for u, v in removed:
            assert result.matrix[u, v] < 0.05
        assert pruned.is_connected()
        assert set(pruned.edges) == set(topo.edges) - set(removed)

    def test_disconnecting_removals_are_skipped(self):
        # On a tree every edge is a bridge: even with every link below the
        # threshold, the connectivity guard must keep all of them.
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)])
        matrix = metropolis_weights(topo)
        pruned, removed = prune_links(topo, matrix, 1.0)
        assert removed == ()
        assert pruned.edges == topo.edges

    def test_zero_threshold_prunes_nothing(self):
        topo = ring_with_chords(12, HUB_CHORDS)
        result = optimize_weight_matrix(topo, iterations=120)
        # Off-diagonal weights are theta >= 0, so strictly-below-zero is empty.
        _, removed = prune_links(topo, result.matrix, 0.0)
        assert removed == ()


class TestZeroWeightPruningTrajectory:
    def test_pruning_a_zero_weight_link_preserves_the_trajectory(self):
        # W is the Metropolis matrix of the ring alone, used as an explicit
        # matrix on both the ring+chord topology (the chord carries weight
        # exactly 0) and the bare ring. The chord still transmits frames in
        # the first run — it just mixes with weight zero — so the byte
        # ledgers differ while every iterate is bitwise identical.
        full = ring_with_chords(10, [(0, 5)])
        bare = Topology(10, [(i, (i + 1) % 10) for i in range(10)])
        matrix = metropolis_weights(bare)

        def run(topology):
            config = SNAPConfig(
                compressor="changed_only",
                optimize_weights=False,
                max_rounds=8,
                seed=11,
            )
            trainer = build_trainer(topology, config, weight_matrix=matrix)
            return trainer.run(stop_on_convergence=False)

        with_link = run(full)
        without_link = run(bare)
        for a, b in zip(with_link.rounds, without_link.rounds):
            assert a.mean_loss == b.mean_loss
            assert a.consensus_error == b.consensus_error
        assert np.array_equal(
            with_link.final_params, without_link.final_params
        )
        # The pruned run pays strictly fewer bytes: that is the point.
        assert without_link.total_bytes < with_link.total_bytes


class TestIdleControllerIsNoop:
    @pytest.mark.parametrize("engine", ["reference", "vectorized", "semisync"])
    def test_armed_but_idle_controller_leaves_the_digest_unchanged(self, engine):
        topo = ring_with_chords(8, [(0, 3), (2, 6)])

        def digest(adaptive: bool):
            config = SNAPConfig(
                engine=engine,
                optimize_weights=True,
                weight_iterations=60,
                adaptive_topology=adaptive,
                topology_reoptimize_every=2,
                # Strictly-below-zero never matches a theta >= 0 weight, so
                # the controller runs every cycle and decides "no change".
                topology_prune_threshold=0.0,
                max_rounds=8,
                seed=11,
            )
            return capture_run(build_trainer(topo, config))

        assert digest(True) == digest(False)


class TestSwapStateConsistency:
    @pytest.fixture(scope="class")
    def swapped_trainer(self):
        config = SNAPConfig(
            engine="reference",
            invariants="strict",
            optimize_weights=True,
            weight_iterations=300,
            adaptive_topology=True,
            topology_reoptimize_every=4,
            topology_prune_threshold=0.05,
            max_rounds=10,
            seed=11,
        )
        trainer = build_trainer(ring_with_chords(12, HUB_CHORDS), config)
        trainer._swap_result = trainer.run(stop_on_convergence=False)
        return trainer

    def test_a_swap_happened_and_was_revalidated(self, swapped_trainer):
        controller = swapped_trainer._topology_controller
        assert controller.summary()["pruned_edges"] >= 1
        assert swapped_trainer.monitor.checks["topology-swap"] == len(
            controller.swaps
        )

    def test_server_link_state_matches_the_pruned_topology(self, swapped_trainer):
        topology = swapped_trainer.topology
        for server in swapped_trainer.servers:
            expected = set(topology.neighbors(server.node_id))
            assert set(server.neighbors) == expected
            assert set(server.views) == expected
            assert set(server.last_sent) == expected
            assert set(server.fresh) == expected

    def test_staleness_ledger_matches_the_pruned_topology(self, swapped_trainer):
        pairs = set(swapped_trainer.link_staleness)
        assert len(pairs) == swapped_trainer._staleness.size
        expected = set()
        for u, v in swapped_trainer.topology.edges:
            expected.add((u, v))
            expected.add((v, u))
        assert pairs == expected

    def test_edge_states_hold_no_pruned_links(self, swapped_trainer):
        live = set(swapped_trainer.link_staleness)
        assert set(swapped_trainer._edge_states) <= live

    def test_channel_rejects_pruned_links(self, swapped_trainer):
        pruned = [
            edge
            for swap in swapped_trainer._topology_controller.swaps
            for edge in swap.pruned_edges
        ]
        assert pruned
        for u, v in pruned:
            assert not swapped_trainer.topology.has_edge(u, v)

    def test_warm_resolves_are_cheap(self, swapped_trainer):
        controller = swapped_trainer._topology_controller
        # The online re-solves warm-start + patience-stop: far below the
        # (two-problem) cold budget of 2 * weight_iterations per swap.
        resolves = [s for s in controller.swaps if s.solver_steps > 0]
        assert resolves
        for swap in resolves:
            assert swap.solver_steps < 2 * 300


class TestBudgetKnob:
    def make_controller(self, spec, budget=1000):
        topo = ring_with_chords(8, [(0, 4)])
        result = optimize_weight_matrix(topo, iterations=40)
        config = SNAPConfig(
            adaptive_topology=True,
            compressor=spec,
            topology_prune_threshold=0.0,  # isolate the knob from pruning
            bytes_budget=budget,
        )
        return TopologyController(topo, result, config)

    def test_overshoot_steps_bits_down(self):
        controller = self.make_controller(CompressorSpec.parse("uniform:bits=8"))
        swap = controller.propose(
            5, bytes_spent=900, rounds_done=5, total_rounds=20
        )
        assert swap.compressor_spec.params_dict()["bits"] == 6

    def test_undershoot_steps_bits_up_but_never_past_the_config(self):
        controller = self.make_controller(CompressorSpec.parse("uniform:bits=4"))
        controller.spec = CompressorSpec.parse("uniform:bits=2")
        swap = controller.propose(
            5, bytes_spent=10, rounds_done=5, total_rounds=20
        )
        assert swap.compressor_spec.params_dict()["bits"] == 4
        # Already back at the configured fidelity: no further relax step.
        assert (
            controller.propose(
                10, bytes_spent=20, rounds_done=10, total_rounds=20
            )
            is None
        )

    def test_topk_halves_and_bottoms_out_at_one(self):
        controller = self.make_controller(CompressorSpec.parse("topk:k=2"))
        swap = controller.propose(
            5, bytes_spent=900, rounds_done=5, total_rounds=20
        )
        assert swap.compressor_spec.params_dict()["k"] == 1
        assert (
            controller.propose(
                10, bytes_spent=1800, rounds_done=10, total_rounds=20
            )
            is None
        )

    def test_presets_have_no_knob(self):
        # SNAPConfig refuses a budget on a preset; the controller alone
        # still steps nothing on one.
        controller = self.make_controller(CompressorSpec.parse("uniform:bits=8"))
        controller.spec = CompressorSpec.parse("ape")
        assert (
            controller.propose(
                5, bytes_spent=900, rounds_done=5, total_rounds=20
            )
            is None
        )

    def test_no_budget_means_no_knob_steps(self):
        controller = self.make_controller(
            CompressorSpec.parse("uniform:bits=8"), budget=None
        )
        assert (
            controller.propose(
                5, bytes_spent=10**9, rounds_done=5, total_rounds=20
            )
            is None
        )
