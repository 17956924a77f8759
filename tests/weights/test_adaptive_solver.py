"""Tests for the adaptive-topology solver extensions.

Covers the solver-side pieces the adaptive runtime builds on:
``warm_start=`` (the online re-solve path, with the >=5x step-count
regression bar) and the cached lazy :class:`MixingReport` that the EXTRA
step-size cap reuses bitwise instead of recomputing a dense spectrum.
"""

import numpy as np

from repro.consensus.step_size import extra_max_step_size, safe_step_size
from repro.topology.generators import ring_topology
from repro.topology.graph import Topology
from repro.utils.linalg import smallest_eigenvalue
from repro.weights.optimizer import (
    lazify,
    minimize_second_eigenvalue,
    optimize_weight_matrix,
)
from repro.weights.spectrum import analyze_weight_matrix


def ring_with_chords(n: int, chords) -> Topology:
    edges = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    return Topology(n, edges)


class TestWarmStart:
    def test_warm_start_five_times_fewer_steps(self):
        # The satellite bar: after pruning one edge from a ring+chords graph,
        # the warm-started re-solve reaches the shared best objective in
        # >=5x fewer subgradient steps than the cold solve. The pruned chord
        # is one of five parallel hub chords, i.e. a link whose removal
        # barely moves the optimum — exactly the regime the online pruning
        # rule operates in (it only drops links with near-zero weight).
        topo = ring_with_chords(12, [(0, 2), (0, 4), (0, 6), (0, 8), (0, 10)])
        prior = optimize_weight_matrix(topo, iterations=300)
        pruned = topo.remove_edges([(0, 6)])
        cold = optimize_weight_matrix(pruned, iterations=300)
        warm = optimize_weight_matrix(pruned, iterations=300, warm_start=prior)
        assert warm.problem == cold.problem
        target = max(cold.objective_trace[-1], warm.objective_trace[-1]) + 1e-9
        steps_warm = next(
            i + 1 for i, v in enumerate(warm.objective_trace) if v <= target
        )
        steps_cold = next(
            (i + 1 for i, v in enumerate(cold.objective_trace) if v <= target),
            len(cold.objective_trace),
        )
        assert warm.report.rate_score >= cold.report.rate_score - 1e-4
        assert steps_cold >= 5 * steps_warm

    def test_warm_start_reads_only_surviving_edges(self):
        topo = ring_with_chords(8, [(0, 4)])
        prior = optimize_weight_matrix(topo, iterations=80)
        pruned = topo.remove_edges([(0, 4)])
        warm = optimize_weight_matrix(pruned, iterations=80, warm_start=prior)
        assert warm.matrix.shape == (8, 8)
        assert warm.matrix[0, 4] == 0.0

    def test_patience_stops_early(self):
        topo = ring_with_chords(12, [(0, 6)])
        prior = optimize_weight_matrix(topo, iterations=150)
        full = minimize_second_eigenvalue(topo, iterations=150)
        early = minimize_second_eigenvalue(
            topo, iterations=150, initial_matrix=prior.matrix, patience=10
        )
        assert len(early.objective_trace) < len(full.objective_trace)
        assert early.objective_trace[-1] <= full.objective_trace[-1] + 1e-3


class TestCachedLazyReport:
    def test_winner_carries_lazy_report(self):
        topo = ring_with_chords(10, [(0, 5), (2, 7)])
        result = optimize_weight_matrix(topo, iterations=60)
        assert result.lazy_report is not None

    def test_lazy_report_is_bitwise_the_lazy_spectrum(self):
        topo = ring_with_chords(10, [(0, 5), (2, 7)])
        result = optimize_weight_matrix(topo, iterations=60)
        recomputed = analyze_weight_matrix(lazify(result.matrix))
        assert result.lazy_report.smallest == recomputed.smallest
        assert result.lazy_report.second_largest == recomputed.second_largest

    def test_step_size_cap_reuse_is_bitwise(self):
        # The whole point of the cache: passing lazy_report.smallest into the
        # step-size cap must reproduce the recomputed cap bit for bit.
        topo = ring_with_chords(10, [(0, 5), (2, 7)])
        result = optimize_weight_matrix(topo, iterations=60)
        direct = extra_max_step_size(result.matrix, 4.0)
        cached = extra_max_step_size(
            result.matrix, 4.0, lam_min_tilde=result.lazy_report.smallest
        )
        assert direct == cached
        assert safe_step_size(result.matrix, 4.0) == safe_step_size(
            result.matrix, 4.0, lam_min_tilde=result.lazy_report.smallest
        )

    def test_lam_min_tilde_matches_direct_smallest(self):
        topo = ring_with_chords(10, [(0, 5)])
        result = optimize_weight_matrix(topo, iterations=60)
        w_tilde = (result.matrix + np.eye(result.matrix.shape[0])) / 2.0
        assert result.lazy_report.smallest == smallest_eigenvalue(w_tilde)

    def test_solver_results_have_no_lazy_report_by_default(self):
        result = minimize_second_eigenvalue(ring_topology(8), iterations=30)
        assert result.lazy_report is None
