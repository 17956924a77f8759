"""Tests for repro.core.ape.APESchedule — Algorithm 1's threshold machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ape import APESchedule, APEScheduleBank


def make_schedule(**overrides):
    defaults = dict(
        initial_threshold=1.0,
        growth=1.01,
        stage_iterations=10,
        decay=0.9,
        epsilon=0.01,
    )
    defaults.update(overrides)
    return APESchedule(**defaults)


class TestSendThreshold:
    def test_matches_algorithm_line_4(self):
        schedule = make_schedule()
        expected = 1.0 / (10 * 1.01**10)
        assert schedule.send_threshold == pytest.approx(expected)

    def test_zero_once_exhausted(self):
        schedule = make_schedule(initial_threshold=0.02, epsilon=0.05)
        assert not schedule.active
        assert schedule.send_threshold == 0.0
        assert schedule.threshold == 0.0

    def test_scales_with_stage_budget(self):
        small = make_schedule(initial_threshold=0.5)
        large = make_schedule(initial_threshold=2.0)
        assert large.send_threshold == pytest.approx(4 * small.send_threshold)


class TestAccumulation:
    def test_matches_closed_form_bound(self):
        """The recursion A <- g (A + m) equals sum_l g^l m_{k-l}."""
        schedule = make_schedule(initial_threshold=100.0)  # never advances
        growth = schedule.growth
        suppressed = [0.3, 0.1, 0.2, 0.05]
        for m in suppressed:
            schedule.record_round(m)
        k = len(suppressed)
        expected = sum(
            growth ** (k - t) * m for t, m in enumerate(suppressed)
        )
        assert schedule.accumulated_error == pytest.approx(expected)

    def test_stage_advances_when_budget_exceeded(self):
        schedule = make_schedule(initial_threshold=1.0)
        # one huge suppressed change blows the budget immediately
        schedule.record_round(2.0)
        assert schedule.stage == 1
        assert schedule.threshold == pytest.approx(0.9)
        assert schedule.accumulated_error == 0.0

    def test_stage_lasts_at_least_stage_iterations_under_the_rule(self):
        """Suppressing at most send_threshold per round cannot end a stage early."""
        schedule = make_schedule(max_stage_iterations=1000)
        limit = schedule.send_threshold
        for _ in range(schedule.stage_iterations):
            schedule.record_round(limit)
        assert schedule.stage == 0  # still within budget after I_k rounds

    def test_time_box_advances_quiet_stages(self):
        """A converged run (nothing suppressed) still steps the threshold down,
        so the schedule marches to epsilon instead of freezing (the paper's
        'restart ... and reduce the APE threshold' loop)."""
        schedule = make_schedule()
        for _ in range(schedule.stage_iterations):
            schedule.record_round(0.0)
        assert schedule.stage == 1
        assert schedule.threshold == pytest.approx(0.9)

    def test_zero_suppression_does_not_advance_before_time_box(self):
        schedule = make_schedule(max_stage_iterations=50)
        for _ in range(49):
            schedule.record_round(0.0)
        assert schedule.stage == 0
        schedule.record_round(0.0)
        assert schedule.stage == 1

    def test_time_box_below_stage_iterations_rejected(self):
        with pytest.raises(ValueError):
            make_schedule(max_stage_iterations=5)

    def test_negative_suppression_rejected(self):
        with pytest.raises(ValueError):
            make_schedule().record_round(-0.1)


class TestTermination:
    def test_decays_to_exhaustion(self):
        schedule = make_schedule(initial_threshold=1.0, epsilon=0.5)
        # each big value forces a stage advance: 1.0 -> 0.9 -> ... -> < 0.5
        advances = 0
        while schedule.active and advances < 100:
            schedule.record_round(10.0)
            advances += 1
        assert not schedule.active
        # 0.9^7 ~ 0.478 < 0.5: seven advances needed
        assert advances == 7

    def test_record_round_is_noop_after_exhaustion(self):
        schedule = make_schedule(initial_threshold=0.1, epsilon=0.2)
        assert not schedule.active
        schedule.record_round(5.0)
        assert schedule.stage == 0

    def test_growth_below_one_rejected(self):
        with pytest.raises(ValueError):
            make_schedule(growth=0.5)

    def test_repr_shows_state(self):
        assert "stage=0" in repr(make_schedule())


class TestScheduleBank:
    """The columnar bank vs N independent scalar schedules (Algorithm 1 twice)."""

    @given(
        n_nodes=st.integers(1, 12),
        initial_threshold=st.one_of(st.floats(1e-6, 10.0), st.just(1e-323)),
        growth=st.floats(1.0, 1.5),
        stage_iterations=st.integers(1, 6),
        extra_time_box=st.integers(0, 4),
        decay=st.floats(0.1, 0.99),
        epsilon=st.one_of(st.just(0.0), st.floats(1e-9, 1e-2), st.just(5e-324)),
        n_rounds=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_bank_equals_independent_scalar_schedules(
        self,
        n_nodes,
        initial_threshold,
        growth,
        stage_iterations,
        extra_time_box,
        decay,
        epsilon,
        n_rounds,
        seed,
    ):
        config = dict(
            initial_threshold=initial_threshold,
            growth=growth,
            stage_iterations=stage_iterations,
            decay=decay,
            epsilon=epsilon,
            max_stage_iterations=stage_iterations + extra_time_box,
        )
        bank = APEScheduleBank(n_nodes, **config)
        scalars = [APESchedule(**config) for _ in range(n_nodes)]
        rng = np.random.default_rng(seed)
        for _ in range(n_rounds):
            assert bank.send_thresholds().tolist() == [
                s.send_threshold for s in scalars
            ]
            nodes = np.flatnonzero(rng.random(n_nodes) < 0.7)
            # Mostly within the per-round allowance (time-boxed advances),
            # sometimes far beyond it (budget-exceeded advances).
            suppressed = bank.send_thresholds()[nodes] * rng.choice(
                [0.0, 0.5, 1.0, 50.0], size=nodes.size
            )
            stages_before = [s.stage for s in scalars]
            for node, value in zip(nodes.tolist(), suppressed.tolist()):
                scalars[node].record_round(value)
            advanced = bank.record_rounds(nodes, suppressed)
            assert advanced.tolist() == [
                node
                for node in nodes.tolist()
                if scalars[node].stage != stages_before[node]
            ]
            assert [row.state_dict() for row in bank] == [
                s.state_dict() for s in scalars
            ]

    def test_denormal_decay_exhausts_instead_of_pinning(self):
        # 2 ulp * 0.9 rounds back to 2 ulp: both transitions must drop to 0.
        config = dict(initial_threshold=1e-323, growth=1.0, decay=0.9, epsilon=0.0)
        bank, scalar = APEScheduleBank(2, **config), APESchedule(**config)
        scalar.record_round(1.0)
        advanced = bank.record_rounds(np.array([1]), np.array([1.0]))
        assert advanced.tolist() == [1]
        assert scalar.state_dict()["threshold"] == 0.0
        assert bank[1].state_dict() == scalar.state_dict()
        assert bank[0].state_dict()["threshold"] == 1e-323
        assert not bank[1].active and bank.send_thresholds().tolist()[1] == 0.0

    def test_exhausted_rows_are_skipped_while_live_rows_advance(self):
        config = dict(initial_threshold=1.0, growth=1.01, epsilon=0.5)
        bank = APEScheduleBank(2, **config)
        scalars = [APESchedule(**config) for _ in range(2)]
        for _ in range(7):  # 0.9^7 < 0.5: row 0 exhausts, row 1 never moves
            scalars[0].record_round(10.0)
            bank.record_rounds(np.array([0]), np.array([10.0]))
        assert not bank[0].active and bank[1].active
        for _ in range(3):
            for scalar in scalars:
                scalar.record_round(10.0)
            advanced = bank.record_rounds(np.arange(2), np.array([10.0, 10.0]))
            assert advanced.tolist() == [1]
        assert [row.state_dict() for row in bank] == [s.state_dict() for s in scalars]
        assert bank.stages.tolist() == [7, 3]

    def test_rows_are_views_of_the_bank(self):
        bank = APEScheduleBank(3, initial_threshold=1.0, growth=1.01, epsilon=0.01)
        assert len(bank) == 3 and bank[1] is bank[1]
        bank[1].record_round(2.0)  # scalar transition, seen by the columns
        assert bank.stages.tolist() == [0, 1, 0]
        bank.record_rounds(np.array([2]), np.array([2.0]))  # and vice versa
        assert bank[2].stage == 1 and bank[2].threshold == pytest.approx(0.9)
        bank[0].load_state_dict(bank[1].state_dict())
        assert bank.thresholds.tolist() == [0.9, 0.9, 0.9]

    def test_negative_suppression_rejected_before_any_row_moves(self):
        bank = APEScheduleBank(3, initial_threshold=1.0, growth=1.01)
        before = [row.state_dict() for row in bank]
        with pytest.raises(ValueError):
            bank.record_rounds(np.arange(3), np.array([0.1, -0.1, 0.1]))
        assert [row.state_dict() for row in bank] == before

    def test_state_dict_values_are_builtin_numbers(self):
        """The run digest hashes ``repr`` of these: numpy scalars would change it."""
        bank = APEScheduleBank(2, initial_threshold=1.0, growth=1.01)
        bank.record_rounds(np.arange(2), np.array([0.01, 5.0]))
        for schedule in (*bank, make_schedule()):
            state = schedule.state_dict()
            assert [type(state[key]) for key in sorted(state)] == [
                float,
                int,
                int,
                float,
            ]
            assert type(schedule.stage) is int
            assert type(schedule.send_threshold) is float
            assert type(schedule.threshold) is float
            assert type(schedule.accumulated_error) is float
