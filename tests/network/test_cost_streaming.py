"""Columnar tracker internals: observers, per-edge counters, retention bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.network.cost import CommunicationCostTracker


class TestObservers:
    def test_single_record_arrives_as_length_one_batch(self):
        tracker = CommunicationCostTracker()
        seen = []
        tracker.add_observer(
            lambda r, s, d, b, h: seen.append(
                (r, s.tolist(), d.tolist(), b.tolist(), h.tolist())
            )
        )
        tracker.record(1, 0, 1, 40, hops=1)
        assert seen == [(1, [0], [1], [40], [1])]

    def test_batch_record_arrives_verbatim_in_insertion_order(self):
        tracker = CommunicationCostTracker()
        seen = []
        tracker.add_observer(lambda r, s, d, b, h: seen.append((r, b.sum())))
        tracker.record_many(2, [0, 1, 2], [1, 2, 0], [10, 20, 30], hops=1)
        tracker.record(3, 0, 1, 5, hops=1)
        assert [(r, int(total)) for r, total in seen] == [(2, 60), (3, 5)]

    def test_observers_fire_with_retention_off(self):
        tracker = CommunicationCostTracker(retain_records=False)
        seen = []
        tracker.add_observer(lambda r, s, d, b, h: seen.append(int(b.sum())))
        tracker.record_many(1, [0, 1], [1, 0], [7, 8], hops=1)
        assert seen == [15]
        with pytest.raises(ConfigurationError):
            tracker.records()


class TestColumnarAggregates:
    def test_per_edge_bytes_accumulates_across_batches(self):
        tracker = CommunicationCostTracker(retain_records=False)
        tracker.record_many(1, [0, 1], [1, 0], [10, 20], hops=1)
        tracker.record_many(2, [0, 3], [1, 2], [5, 40], hops=1)
        assert tracker.per_edge_bytes() == {
            (0, 1): 15,
            (1, 0): 20,
            (3, 2): 40,
        }

    def test_ascending_batch_is_counted_without_set_operations(self, monkeypatch):
        """A vectorized round's batch — strictly increasing ``(src, dst)`` —
        adds in place (every round after the first) or splices its new edges
        in; only unsorted or repeated keys are folded through ``np.unique``.
        The branch is picked by that property of the input alone."""
        tracker = CommunicationCostTracker(retain_records=False)

        def no_set_operations(*args, **kwargs):
            raise AssertionError("np.unique called")

        with monkeypatch.context() as patched:
            patched.setattr(np, "unique", no_set_operations)
            tracker.record_many(1, [0, 0, 1, 3], [1, 2, 0, 2], [1, 2, 3, 4], hops=1)
            tracker.record_many(2, [0, 1, 3], [2, 0, 2], [10, 20, 30], hops=1)
            tracker.record_many(3, [0, 2, 4], [1, 2, 0], [100, 200, 300], hops=1)
            for needs_folding in (
                ([1, 0], [0, 2], [1, 1]),  # not ascending
                ([0, 0], [1, 1], [1, 1]),  # a repeat
            ):
                with pytest.raises(AssertionError, match="np.unique called"):
                    tracker.record_many(4, *needs_folding, hops=1)
        assert tracker.per_edge_bytes() == {
            (0, 1): 101,
            (0, 2): 12,
            (1, 0): 23,
            (2, 2): 200,
            (3, 2): 34,
            (4, 0): 300,
        }

    @settings(max_examples=100, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.integers(0, 4), st.integers(0, 4), st.integers(0, 50)
                    ),
                    min_size=1,
                    max_size=8,
                ),
                st.sampled_from(["as drawn", "sorted", "sorted unique"]),
            ),
            max_size=8,
        )
    )
    def test_per_edge_bytes_equals_a_dict_on_any_batches(self, batches):
        """Sorted, unsorted, with repeats, with new edges: one answer."""
        tracker = CommunicationCostTracker(retain_records=False)
        expected = {}
        for flows, order in batches:
            if order != "as drawn":
                flows = sorted(flows)
            if order == "sorted unique":
                flows = list({(s, d): (s, d, b) for s, d, b in flows}.values())
            tracker.record_many(1, *zip(*flows), hops=1)
            for source, destination, size in flows:
                edge = (source, destination)
                expected[edge] = expected.get(edge, 0) + size
        assert tracker.per_edge_bytes() == dict(sorted(expected.items()))
        assert list(tracker.per_edge_bytes()) == sorted(expected)

    def test_round_series_survive_geometric_growth(self):
        tracker = CommunicationCostTracker(retain_records=False)
        for round_index in (1, 100, 1000):
            tracker.record(round_index, 0, 1, 8, hops=2)
        assert tracker.per_round_bytes() == [(1, 8), (100, 8), (1000, 8)]
        assert tracker.per_round_costs() == [(1, 16), (100, 16), (1000, 16)]
        assert tracker.round_bytes(500) == 0
        assert type(tracker.round_bytes(100)) is int
        assert type(tracker.round_cost(1000)) is int

    def test_retention_off_keeps_no_per_flow_state(self):
        """Aggregate state stays O(rounds + edges) however many flows arrive."""
        tracker = CommunicationCostTracker(retain_records=False)
        sources = np.arange(50, dtype=np.int64)
        destinations = np.roll(sources, 1)
        for round_index in range(1, 201):
            tracker.record_many(
                round_index, sources, destinations, np.full(50, 12), hops=1
            )
        assert tracker.n_flows == 50 * 200
        for read_ledger in (tracker.records, lambda: list(tracker.flow_columns())):
            with pytest.raises(ConfigurationError, match="not retained"):
                read_ledger()
        assert tracker._edge_keys.shape[0] == 50
        assert tracker.total_bytes == 50 * 200 * 12

    def test_retained_records_match_aggregates(self):
        retained = CommunicationCostTracker(retain_records=True)
        unretained = CommunicationCostTracker(retain_records=False)
        for tracker in (retained, unretained):
            tracker.record_many(1, [0, 1], [1, 2], [10, 30], hops=1)
            tracker.record(2, 2, 0, 44, hops=3)
        assert retained.total_bytes == unretained.total_bytes
        assert retained.total_cost == unretained.total_cost
        assert retained.per_round_costs() == unretained.per_round_costs()
        assert retained.per_edge_bytes() == unretained.per_edge_bytes()
        assert sum(f.size_bytes for f in retained.records()) == retained.total_bytes
