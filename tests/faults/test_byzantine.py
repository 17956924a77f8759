"""Unit tests for byzantine attack plans and their trainer integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.faults.byzantine import (
    ByzantinePlan,
    GaussianNoiseAttack,
    ScaledUpdateAttack,
    SignFlipAttack,
)
from repro.faults.plan import FaultPlan
from repro.topology.graph import Topology


def _ring(n=6):
    return Topology(n, [(i, (i + 1) % n) for i in range(n)])


class TestAttacks:
    def test_sign_flip_negates_and_scales(self):
        params = np.array([1.0, -2.0, 0.5])
        out = SignFlipAttack().transmit(params, 0, 1)
        np.testing.assert_array_equal(out, -params)
        out = SignFlipAttack(scale=3.0).transmit(params, 0, 1)
        np.testing.assert_array_equal(out, -3.0 * params)

    def test_attacks_never_mutate_the_honest_vector(self):
        params = np.array([1.0, 2.0, 3.0])
        keep = params.copy()
        for attack in (
            SignFlipAttack(),
            GaussianNoiseAttack(0.5, seed=1),
            ScaledUpdateAttack(4.0),
        ):
            attack.transmit(params, 2, 5)
            np.testing.assert_array_equal(params, keep)

    def test_gaussian_noise_is_deterministic_per_node_round(self):
        a = GaussianNoiseAttack(0.5, seed=7)
        b = GaussianNoiseAttack(0.5, seed=7)
        params = np.ones(4)
        np.testing.assert_array_equal(
            a.transmit(params, 1, 3), b.transmit(params, 1, 3)
        )
        # Different node or round draws a different noise vector.
        assert not np.array_equal(
            a.transmit(params, 1, 3), a.transmit(params, 2, 3)
        )
        assert not np.array_equal(
            a.transmit(params, 1, 3), a.transmit(params, 1, 4)
        )

    def test_scaled_update_rejects_identity(self):
        with pytest.raises(ConfigurationError):
            ScaledUpdateAttack(1.0)
        with pytest.raises(ConfigurationError):
            GaussianNoiseAttack(0.0)
        with pytest.raises(ConfigurationError):
            SignFlipAttack(scale=0.0)


class TestByzantinePlan:
    def test_explicit_attackers(self):
        plan = ByzantinePlan(SignFlipAttack(), attackers=(1, 4))
        assert plan.attackers(_ring()) == frozenset({1, 4})

    def test_drawn_attackers_are_deterministic_and_stable(self):
        plan_a = ByzantinePlan(SignFlipAttack(), n_attackers=2, seed=5)
        plan_b = ByzantinePlan(SignFlipAttack(), n_attackers=2, seed=5)
        topo = _ring()
        drawn = plan_a.attackers(topo)
        assert drawn == plan_b.attackers(topo)
        assert len(drawn) == 2
        # Re-querying (even through topology churn) keeps the first draw.
        assert plan_a.attackers(_ring()) == drawn

    def test_exactly_one_selection_mode(self):
        with pytest.raises(ConfigurationError):
            ByzantinePlan(SignFlipAttack())
        with pytest.raises(ConfigurationError):
            ByzantinePlan(SignFlipAttack(), attackers=(0,), n_attackers=1)
        with pytest.raises(ConfigurationError):
            ByzantinePlan(SignFlipAttack(), n_attackers=6).attackers(_ring())

    def test_transmit_poisons_only_attackers(self):
        plan = ByzantinePlan(SignFlipAttack(), attackers=(2,))
        topo = _ring()
        params = np.array([1.0, 2.0])
        np.testing.assert_array_equal(
            plan.transmit(params, 2, 1, topo), -params
        )
        honest = plan.transmit(params, 3, 1, topo)
        assert honest is params  # zero-copy for honest nodes

    def test_fault_plan_carries_byzantine(self):
        byz = ByzantinePlan(SignFlipAttack(), attackers=(0,))
        plan = FaultPlan(byzantine=byz)
        assert plan.byzantine is byz
        with pytest.raises(TypeError):
            FaultPlan(byzantine="not-a-plan")
