"""Unit tests for the chaos-layer fault models."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.faults import (
    CorruptionModel,
    CrashRestartSchedule,
    GilbertElliottLinkFailures,
    IndependentCorruption,
    MarkovNodeFailures,
    NoCorruption,
    PartitionSchedule,
    ScheduledCorruption,
)
from repro.topology.generators import complete_topology, ring_topology


class TestGilbertElliott:
    def test_deterministic_given_seed(self, small_topology):
        a = GilbertElliottLinkFailures(0.05, 0.2, seed=7)
        b = GilbertElliottLinkFailures(0.05, 0.2, seed=7)
        for r in range(1, 30):
            assert a.failed_links(small_topology, r) == b.failed_links(
                small_topology, r
            )

    def test_querying_a_round_twice_is_stable(self, small_topology):
        model = GilbertElliottLinkFailures(0.1, 0.3, seed=1)
        tenth = model.failed_links(small_topology, 10)
        model.failed_links(small_topology, 25)  # advance past it
        assert model.failed_links(small_topology, 10) == tenth

    def test_stationary_rate_formula(self):
        model = GilbertElliottLinkFailures(0.05, 0.2, seed=0)
        assert model.stationary_rate == pytest.approx(0.2)

    def test_long_run_down_fraction_matches_stationary_rate(self):
        topo = complete_topology(12)  # 66 links
        model = GilbertElliottLinkFailures(0.05, 0.2, seed=3)
        rounds = 400
        down = sum(
            len(model.failed_links(topo, r)) for r in range(1, rounds + 1)
        )
        fraction = down / (rounds * topo.n_edges)
        assert fraction == pytest.approx(model.stationary_rate, abs=0.03)

    def test_outages_are_bursty(self):
        """Mean burst length is ~1/p_recover, far above the memoryless value."""
        topo = ring_topology(10)
        model = GilbertElliottLinkFailures(0.05, 0.2, seed=9)
        bursts = []
        for edge_index, edge in enumerate(topo.edges):
            run = 0
            for r in range(1, 600):
                if edge in model.failed_links(topo, r):
                    run += 1
                elif run:
                    bursts.append(run)
                    run = 0
        assert np.mean(bursts) == pytest.approx(1 / 0.2, rel=0.35)

    def test_failed_links_are_topology_edges(self, small_topology):
        model = GilbertElliottLinkFailures(0.5, 0.2, seed=2)
        for r in range(1, 20):
            assert model.failed_links(small_topology, r) <= set(
                small_topology.edges
            )

    def test_rebinding_to_a_different_topology_rejected(self):
        model = GilbertElliottLinkFailures(0.1, 0.2, seed=0)
        model.failed_links(ring_topology(6), 1)
        with pytest.raises(ConfigurationError):
            model.failed_links(complete_topology(5), 1)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ConfigurationError):
            GilbertElliottLinkFailures(-0.1, 0.2)
        with pytest.raises(ConfigurationError):
            GilbertElliottLinkFailures(0.1, 1.5)


class TestMarkovNodeFailures:
    def test_deterministic_and_subset_of_nodes(self, small_topology):
        a = MarkovNodeFailures(0.1, 0.4, seed=5)
        b = MarkovNodeFailures(0.1, 0.4, seed=5)
        for r in range(1, 25):
            down = a.failed_nodes(small_topology, r)
            assert down == b.failed_nodes(small_topology, r)
            assert all(0 <= n < small_topology.n_nodes for n in down)

    def test_zero_fail_rate_never_downs_anyone(self, small_topology):
        model = MarkovNodeFailures(0.0, 0.5, seed=1)
        for r in range(1, 10):
            assert model.failed_nodes(small_topology, r) == frozenset()


class TestCrashRestartSchedule:
    def test_spans_are_inclusive(self, ring6):
        model = CrashRestartSchedule({2: [(3, 5)], 4: [(5, 5), (8, 9)]})
        assert model.failed_nodes(ring6, 2) == frozenset()
        assert model.failed_nodes(ring6, 3) == {2}
        assert model.failed_nodes(ring6, 5) == {2, 4}
        assert model.failed_nodes(ring6, 6) == frozenset()
        assert model.failed_nodes(ring6, 8) == {4}
        assert model.failed_nodes(ring6, 10) == frozenset()

    def test_unknown_node_rejected_on_first_use(self, ring6):
        model = CrashRestartSchedule({17: [(1, 2)]})
        with pytest.raises(ConfigurationError, match="17"):
            model.failed_nodes(ring6, 1)

    def test_invalid_span_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            CrashRestartSchedule({0: [(5, 3)]})
        with pytest.raises(ConfigurationError):
            CrashRestartSchedule({0: [(-1, 3)]})


class TestPartitionSchedule:
    def test_cut_links_cross_groups_only(self, ring6):
        model = PartitionSchedule([(2, 4, [[0, 1, 2], [3, 4, 5]])])
        down = model.failed_links(ring6, 3)
        # ring 0-1-2-3-4-5-0: the cut separates {0,1,2} from {3,4,5},
        # severing exactly (2,3) and (0,5).
        assert down == {(2, 3), (0, 5)}
        assert model.failed_links(ring6, 1) == frozenset()
        assert model.failed_links(ring6, 5) == frozenset()

    def test_ungrouped_nodes_keep_their_links(self, ring6):
        model = PartitionSchedule([(1, 1, [[0], [3]])])
        down = model.failed_links(ring6, 1)
        # 0 and 3 are antipodal on the ring: no direct edge, nothing cut.
        assert down == frozenset()

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ConfigurationError, match="overlap"):
            PartitionSchedule([(1, 2, [[0, 1], [1, 2]])])

    def test_single_group_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionSchedule([(1, 2, [[0, 1]])])

    def test_unknown_nodes_rejected_on_first_use(self, ring6):
        model = PartitionSchedule([(1, 2, [[0, 1], [99]])])
        with pytest.raises(ConfigurationError, match="99"):
            model.failed_links(ring6, 1)


class TestCorruptionModels:
    def test_no_corruption_default(self, ring6):
        model = NoCorruption()
        assert not model.corrupted(ring6, 0, 1, 5)

    def test_independent_corruption_is_deterministic(self, ring6):
        a = IndependentCorruption(0.3, seed=4)
        b = IndependentCorruption(0.3, seed=4)
        outcomes = [
            a.corrupted(ring6, u, v, r)
            for r in range(1, 20)
            for u, v in ring6.edges
        ]
        again = [
            b.corrupted(ring6, u, v, r)
            for r in range(1, 20)
            for u, v in ring6.edges
        ]
        assert outcomes == again
        assert any(outcomes) and not all(outcomes)

    def test_independent_corruption_is_directional(self, ring6):
        model = IndependentCorruption(0.5, seed=8)
        pairs = [
            (model.corrupted(ring6, u, v, r), model.corrupted(ring6, v, u, r))
            for r in range(1, 40)
            for u, v in ring6.edges
        ]
        assert any(forward != backward for forward, backward in pairs)

    def test_scheduled_corruption_hits_exactly_its_schedule(self, ring6):
        model = ScheduledCorruption({3: [(0, 1)], 5: [(1, 0), (2, 3)]})
        assert model.corrupted(ring6, 0, 1, 3)
        assert not model.corrupted(ring6, 1, 0, 3)  # directional
        assert model.corrupted(ring6, 1, 0, 5)
        assert model.corrupted(ring6, 2, 3, 5)
        assert not model.corrupted(ring6, 0, 1, 4)

    def test_scheduled_corruption_validates_edges(self, ring6):
        model = ScheduledCorruption({1: [(0, 3)]})  # not a ring edge
        with pytest.raises(ConfigurationError):
            model.corrupted(ring6, 0, 1, 1)


def _directed(topology):
    pairs = [(u, v) for u, v in topology.edges] + [(v, u) for u, v in topology.edges]
    sources, destinations = (np.array(column) for column in zip(*pairs))
    return pairs, sources, destinations


class _EverySecondRound(CorruptionModel):
    """A model with only the per-frame form: exercises the default batch."""

    def corrupted(self, topology, source, destination, round_index):
        return round_index % 2 == 0 and source < destination


class TestPerRoundCorruptionQuery:
    """``corrupted_edges`` must agree with ``corrupted`` frame for frame."""

    @pytest.mark.parametrize(
        "model",
        [
            IndependentCorruption(0.0, seed=4),
            IndependentCorruption(0.01, seed=4),
            IndependentCorruption(0.3, seed=5),
            IndependentCorruption(1.0, seed=6),
            ScheduledCorruption({3: [(0, 1)], 5: [(1, 0), (2, 3)]}),
            NoCorruption(),
            _EverySecondRound(),
        ],
        ids=repr,
    )
    def test_batch_equals_scalar_elementwise(self, ring6, model):
        pairs, sources, destinations = _directed(ring6)
        hits = 0
        for round_index in range(0, 120):
            mask = model.corrupted_edges(ring6, sources, destinations, round_index)
            assert mask.dtype == bool and mask.shape == sources.shape
            scalar = [model.corrupted(ring6, s, d, round_index) for s, d in pairs]
            assert mask.tolist() == scalar
            hits += int(mask.sum())
        if isinstance(model, IndependentCorruption) and 0 < model.rate < 1:
            assert 0 < hits < 120 * len(pairs)

    def test_subset_and_empty_queries(self, ring6):
        model = IndependentCorruption(0.5, seed=8)
        _, sources, destinations = _directed(ring6)
        full = model.corrupted_edges(ring6, sources, destinations, 7)
        part = model.corrupted_edges(ring6, sources[3:9], destinations[3:9], 7)
        assert part.tolist() == full[3:9].tolist()
        empty = np.zeros(0, dtype=np.int64)
        for m in (model, NoCorruption(), ScheduledCorruption({7: [(0, 1)]})):
            assert m.corrupted_edges(ring6, empty, empty, 7).shape == (0,)

    def test_batch_validates_like_the_scalar_form(self, ring6):
        _, sources, destinations = _directed(ring6)
        with pytest.raises(ConfigurationError):
            ScheduledCorruption({1: [(0, 3)]}).corrupted_edges(
                ring6, sources, destinations, 1
            )
        with pytest.raises(ConfigurationError):
            IndependentCorruption(0.1, seed=1).corrupted_edges(
                ring6, sources, destinations, -1
            )
        with pytest.raises(ConfigurationError):
            IndependentCorruption(0.1, seed=1).corrupted_edges(
                ring6, sources, destinations, 2**32
            )


class TestClockSkew:
    def test_no_skew_is_identity(self, ring6):
        from repro.faults import NoClockSkew

        model = NoClockSkew()
        assert model.compute_multiplier(ring6, 0, 1) == 1.0

    def test_scheduled_straggler_spans_are_inclusive(self, ring6):
        from repro.faults import ScheduledStragglers

        model = ScheduledStragglers({2: [(3, 5, 10.0)]})
        assert model.compute_multiplier(ring6, 2, 2) == 1.0
        assert model.compute_multiplier(ring6, 2, 3) == 10.0
        assert model.compute_multiplier(ring6, 2, 5) == 10.0
        assert model.compute_multiplier(ring6, 2, 6) == 1.0
        assert model.compute_multiplier(ring6, 1, 4) == 1.0  # other nodes true

    def test_scalar_shorthand_slows_the_whole_run(self, ring6):
        from repro.faults import ScheduledStragglers

        model = ScheduledStragglers({0: 10.0})
        assert model.compute_multiplier(ring6, 0, 0) == 10.0
        assert model.compute_multiplier(ring6, 0, 10_000) == 10.0

    def test_overlapping_spans_multiply(self, ring6):
        from repro.faults import ScheduledStragglers

        model = ScheduledStragglers({1: [(1, 4, 2.0), (3, 6, 3.0)]})
        assert model.compute_multiplier(ring6, 1, 2) == 2.0
        assert model.compute_multiplier(ring6, 1, 3) == 6.0
        assert model.compute_multiplier(ring6, 1, 5) == 3.0

    def test_straggler_validation(self, ring6):
        from repro.faults import ScheduledStragglers

        with pytest.raises(ConfigurationError):
            ScheduledStragglers({0: [(5, 3, 2.0)]})  # end < start
        with pytest.raises(ConfigurationError):
            ScheduledStragglers({0: [(0, 2, 0.0)]})  # non-positive factor
        model = ScheduledStragglers({99: [(0, 1, 2.0)]})  # node not in topology
        with pytest.raises(ConfigurationError):
            model.compute_multiplier(ring6, 0, 1)

    def test_random_skew_is_deterministic_and_positive(self, ring6):
        from repro.faults import RandomClockSkew

        a = RandomClockSkew(0.5, seed=7)
        b = RandomClockSkew(0.5, seed=7)
        samples = [
            a.compute_multiplier(ring6, n, r)
            for n in range(6)
            for r in range(1, 10)
        ]
        again = [
            b.compute_multiplier(ring6, n, r)
            for n in range(6)
            for r in range(1, 10)
        ]
        assert samples == again
        assert all(s > 0 for s in samples)
        assert len(set(samples)) > 1
        quiet = RandomClockSkew(0.0, seed=7)
        assert quiet.compute_multiplier(ring6, 0, 1) == 1.0

    def test_sigma_validation(self):
        from repro.faults import RandomClockSkew

        with pytest.raises(ConfigurationError):
            RandomClockSkew(-0.1)
