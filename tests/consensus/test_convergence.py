"""Tests for repro.consensus.convergence."""

import numpy as np
import pytest

from repro.consensus.convergence import (
    ConvergenceDetector,
    consensus_error,
)


class TestConsensusError:
    def test_zero_at_consensus(self):
        stacked = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
        assert consensus_error(stacked) == 0.0

    def test_positive_off_consensus(self):
        stacked = np.array([[0.0, 0.0], [2.0, 2.0]])
        assert consensus_error(stacked) == pytest.approx(1.0)

    def test_scale_with_deviation(self):
        base = np.array([[0.0], [2.0]])
        assert consensus_error(3 * base) == pytest.approx(3 * consensus_error(base))

class TestPlateauDetection:
    def test_flat_loss_converges_after_window(self):
        detector = ConvergenceDetector(loss_window=3, min_iterations=3)
        results = [detector.observe(1.0) for _ in range(5)]
        assert results == [False, False, True, True, True]
        assert detector.converged_at == 3

    def test_decreasing_loss_does_not_converge(self):
        detector = ConvergenceDetector(loss_window=3, min_iterations=1)
        for k in range(10):
            assert not detector.observe(10.0 - k)

    def test_relative_tolerance_scales_with_loss(self):
        detector = ConvergenceDetector(
            loss_window=3, relative_loss_tolerance=0.01, min_iterations=1
        )
        # fluctuations of 0.5% around 100 -> within 1% relative tolerance
        assert not detector.observe(100.0)
        assert not detector.observe(100.5)
        assert detector.observe(100.2)

    def test_consensus_gate_blocks_convergence(self):
        detector = ConvergenceDetector(
            loss_window=2, min_iterations=1, consensus_tolerance=0.1
        )
        for _ in range(5):
            assert not detector.observe(1.0, consensus=0.5)
        assert detector.observe(1.0, consensus=0.01)

    def test_min_iterations_enforced(self):
        detector = ConvergenceDetector(loss_window=2, min_iterations=10)
        for _ in range(9):
            assert not detector.observe(1.0)
        assert detector.observe(1.0)

    def test_reset_clears_state(self):
        detector = ConvergenceDetector(loss_window=2, min_iterations=1)
        detector.observe(1.0)
        detector.observe(1.0)
        assert detector.converged
        detector.reset()
        assert not detector.converged
        assert detector.converged_at is None
        assert not detector.observe(5.0)

    def test_convergence_is_sticky(self):
        detector = ConvergenceDetector(loss_window=2, min_iterations=1)
        detector.observe(1.0)
        detector.observe(1.0)
        assert detector.observe(100.0)  # stays converged
        assert detector.converged_at == 2


class TestTargetDetection:
    def test_fires_exactly_at_target(self):
        detector = ConvergenceDetector(target_loss=0.5)
        assert not detector.observe(0.9)
        assert not detector.observe(0.6)
        assert detector.observe(0.5)
        assert detector.converged_at == 3

    def test_target_ignores_plateau(self):
        detector = ConvergenceDetector(
            target_loss=0.1, loss_window=2, min_iterations=1
        )
        # perfectly flat but above target: never converges
        for _ in range(10):
            assert not detector.observe(0.2)

    def test_target_respects_consensus_gate(self):
        detector = ConvergenceDetector(target_loss=0.5, consensus_tolerance=0.01)
        assert not detector.observe(0.4, consensus=1.0)
        assert detector.observe(0.4, consensus=0.0)
