"""Tests for repro.network.cost.CommunicationCostTracker."""

import dataclasses
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.network.cost import CommunicationCostTracker, FlowBatch, FlowRecord
from repro.topology.generators import ring_topology
from repro.topology.routing import all_pairs_hop_counts


class TestExplicitHops:
    def test_cost_is_bytes_times_hops(self):
        tracker = CommunicationCostTracker()
        record = tracker.record(1, 0, 1, size_bytes=100, hops=3)
        assert record.cost == 300
        assert tracker.total_cost == 300
        assert tracker.total_bytes == 100

    def test_accumulation_over_rounds(self):
        tracker = CommunicationCostTracker()
        tracker.record(1, 0, 1, 10, hops=1)
        tracker.record(1, 1, 0, 20, hops=2)
        tracker.record(2, 0, 1, 30, hops=1)
        assert tracker.round_cost(1) == 10 + 40
        assert tracker.round_cost(2) == 30
        assert tracker.round_bytes(1) == 30
        assert tracker.total_cost == 80
        assert tracker.n_flows == 3

    def test_empty_round_reports_zero(self):
        tracker = CommunicationCostTracker()
        assert tracker.round_cost(99) == 0
        assert tracker.round_bytes(99) == 0

    def test_per_round_series_sorted(self):
        tracker = CommunicationCostTracker()
        tracker.record(3, 0, 1, 5, hops=1)
        tracker.record(1, 0, 1, 7, hops=1)
        assert tracker.per_round_costs() == [(1, 7), (3, 5)]
        assert tracker.per_round_bytes() == [(1, 7), (3, 5)]

    def test_missing_hops_without_matrix_rejected(self):
        tracker = CommunicationCostTracker()
        with pytest.raises(ConfigurationError):
            tracker.record(1, 0, 1, 10)

    def test_negative_bytes_rejected(self):
        tracker = CommunicationCostTracker()
        with pytest.raises(ConfigurationError):
            tracker.record(1, 0, 1, -5, hops=1)


class TestHopMatrix:
    def test_hops_looked_up(self):
        topo = ring_topology(6)
        tracker = CommunicationCostTracker(all_pairs_hop_counts(topo))
        record = tracker.record(1, 0, 3, size_bytes=10)
        assert record.hops == 3
        assert record.cost == 30

    def test_unreachable_pair_rejected(self):
        from repro.topology.graph import Topology

        topo = Topology(4, [(0, 1), (2, 3)])
        tracker = CommunicationCostTracker(all_pairs_hop_counts(topo))
        with pytest.raises(ConfigurationError):
            tracker.record(1, 0, 2, 10)

    def test_explicit_hops_override_matrix(self):
        topo = ring_topology(6)
        tracker = CommunicationCostTracker(all_pairs_hop_counts(topo))
        record = tracker.record(1, 0, 3, 10, hops=1)
        assert record.cost == 10

    def test_records_are_immutable_snapshots(self):
        tracker = CommunicationCostTracker()
        tracker.record(1, 0, 1, 10, hops=1)
        records = tracker.records()
        assert len(records) == 1
        assert records[0].size_bytes == 10


class TestRecordMany:
    def test_aggregates_match_individual_records(self):
        batch = CommunicationCostTracker()
        loop = CommunicationCostTracker()
        sources = [0, 1, 2, 0]
        destinations = [1, 2, 0, 2]
        sizes = [10, 0, 25, 7]
        count = batch.record_many(3, sources, destinations, sizes, hops=1)
        for s, d, b in zip(sources, destinations, sizes):
            loop.record(3, s, d, b, hops=1)
        assert count == 4
        assert batch.total_bytes == loop.total_bytes
        assert batch.total_cost == loop.total_cost
        assert batch.n_flows == loop.n_flows == 4
        assert batch.per_round_costs() == loop.per_round_costs()
        assert batch.records() == loop.records()

    def test_per_flow_hops_array(self):
        tracker = CommunicationCostTracker()
        tracker.record_many(1, [0, 1], [1, 0], [10, 20], hops=[2, 3])
        assert tracker.total_cost == 10 * 2 + 20 * 3

    def test_hop_matrix_lookup(self):
        topo = ring_topology(6)
        tracker = CommunicationCostTracker(all_pairs_hop_counts(topo))
        tracker.record_many(1, [0], [3], [10])
        assert tracker.total_cost == 30

    def test_mismatched_arrays_rejected(self):
        tracker = CommunicationCostTracker()
        with pytest.raises(ConfigurationError):
            tracker.record_many(1, [0, 1], [1], [10, 20], hops=1)

    def test_negative_size_rejected(self):
        tracker = CommunicationCostTracker()
        with pytest.raises(ConfigurationError):
            tracker.record_many(1, [0], [1], [-1], hops=1)

    def test_unreachable_pair_rejected(self):
        from repro.topology.graph import Topology

        topo = Topology(4, [(0, 1), (2, 3)])
        tracker = CommunicationCostTracker(all_pairs_hop_counts(topo))
        with pytest.raises(ConfigurationError):
            tracker.record_many(1, [0], [2], [10])

    def test_aggregates_stay_plain_ints(self):
        tracker = CommunicationCostTracker()
        tracker.record_many(1, [0], [1], [10], hops=1)
        assert type(tracker.total_bytes) is int
        assert type(tracker.round_cost(1)) is int

    def test_retained_batch_does_not_alias_the_callers_arrays(self):
        """The engine reuses its edge arrays round after round: the retained
        ledger must own its columns."""
        tracker = CommunicationCostTracker()
        columns = [
            np.array(c, dtype=np.int64) for c in ([0, 1], [1, 2], [10, 20], [1, 3])
        ]
        tracker.record_many(1, *columns[:3], hops=columns[3])
        before = tracker.records()
        for column in columns:
            column[:] = 99
        assert tracker.records() == before == (
            FlowRecord(1, 0, 1, 10, 1),
            FlowRecord(1, 1, 2, 20, 3),
        )
        assert _flows_of(tracker.flow_columns()) == [
            (1, 0, 1, 10, 1),
            (1, 1, 2, 20, 3),
        ]


class TestRetainRecords:
    def test_disabled_keeps_aggregates_but_not_records(self):
        tracker = CommunicationCostTracker(retain_records=False)
        tracker.record(1, 0, 1, 10, hops=1)
        tracker.record_many(2, [0, 1], [1, 0], [5, 5], hops=1)
        assert tracker.total_bytes == 20
        assert tracker.n_flows == 3
        assert tracker.round_bytes(2) == 10
        with pytest.raises(ConfigurationError):
            tracker.records()

    def test_trainer_config_controls_retention(self):
        import numpy as np

        from repro.core.config import SNAPConfig
        from repro.core.trainer import SNAPTrainer
        from repro.data.dataset import Dataset
        from repro.models.logistic import LogisticRegression

        rng = np.random.default_rng(0)
        topo = ring_topology(4)
        shards = [
            Dataset(rng.normal(size=(12, 3)), (rng.normal(size=12) > 0).astype(float))
            for _ in range(4)
        ]
        config = SNAPConfig(
            max_rounds=3, optimize_weights=False, retain_flow_records=False, seed=1
        )
        trainer = SNAPTrainer(LogisticRegression(3), shards, topo, config)
        trainer.run(stop_on_convergence=False)
        assert trainer.tracker.total_bytes > 0
        with pytest.raises(ConfigurationError):
            trainer.tracker.records()


# -- scalar record() ≡ record_many() ≡ a flow-at-a-time ledger ---------------------


class _FlowAtATimeLedger:
    """The ledger's semantics, spelled out one flow at a time in plain Python."""

    def __init__(self):
        self.flows = []  # (round, source, destination, size, hops)
        self.touched_rounds = set()
        self.stage_bytes = {}
        self.stage_costs = {}
        self.observed = []

    def add(self, round_index, flows, stage, batch):
        """One ``record`` (``batch=False``) or one ``record_many`` call."""
        self.touched_rounds.add(round_index)
        for source, destination, size, hops in flows:
            self.flows.append((round_index, source, destination, size, hops))
        if stage is not None:
            self.stage_bytes[stage] = self.stage_bytes.get(stage, 0) + sum(
                size for _, _, size, _ in flows
            )
            self.stage_costs[stage] = self.stage_costs.get(stage, 0) + sum(
                size * hops for _, _, size, hops in flows
            )
        columns = tuple(zip(*flows)) if flows else ((), (), (), ())
        self.observed.append((round_index, *columns))
        assert batch or len(flows) == 1

    def per_round(self, weight):
        series = {r: 0 for r in self.touched_rounds}
        for r, _, _, size, hops in self.flows:
            series[r] += weight(size, hops)
        return sorted(series.items())

    def per_edge_bytes(self):
        edges = {}
        for _, source, destination, size, _ in self.flows:
            edges[(source, destination)] = edges.get((source, destination), 0) + size
        return edges


_HOP_MATRIX = all_pairs_hop_counts(ring_topology(6))
_nodes = st.integers(0, 5)
_flow = st.tuples(_nodes, _nodes, st.integers(0, 1000), st.integers(0, 3))
_round = st.integers(-3, 70)  # refused negative rounds; past the first 64-slot growth
_stage = st.sampled_from([None, "ape", "topk"])
_one_flow = st.lists(_flow, min_size=1, max_size=1)
_op = st.one_of(
    st.tuples(st.just("one"), _round, _one_flow, _stage),
    st.tuples(st.just("many"), _round, st.lists(_flow, max_size=6), _stage),
    # A batch whose hops are one scalar for every flow (SNAP's one-hop traffic).
    st.tuples(
        st.just("many-scalar-hops"), _round, st.lists(_flow, max_size=6), _stage
    ),
    # hops=None: looked up in the tracker's hop matrix.
    st.tuples(st.just("one-matrix-hops"), _round, _one_flow, _stage),
    st.tuples(
        st.just("many-matrix-hops"), _round, st.lists(_flow, max_size=6), _stage
    ),
)


def _flows_of(batches):
    """Flatten ``flow_columns()`` batches to ``(round, src, dst, size, hops)``."""
    flows = []
    for round_index, *columns in batches:
        assert type(round_index) is int
        for column in columns:
            assert column.dtype == np.int64 and column.ndim == 1
        rows = zip(*(column.tolist() for column in columns))
        flows.extend((round_index, *row) for row in rows)
    return flows


def _observed(calls):
    def observer(round_index, sources, destinations, sizes, hops):
        for column in (sources, destinations, sizes, hops):
            assert column.dtype == np.int64 and column.ndim == 1
        calls.append(
            (
                round_index,
                tuple(sources.tolist()),
                tuple(destinations.tolist()),
                tuple(sizes.tolist()),
                tuple(hops.tolist()),
            )
        )

    return observer


def _flat(calls):
    """Observer calls as one ``(round, src, dst, size, hops)`` row per flow."""
    return [(r, *flow) for r, *columns in calls for flow in zip(*columns)]


def _snapshot(tracker, calls):
    return (
        tracker.total_bytes,
        tracker.total_cost,
        tracker.n_flows,
        tracker.per_round_bytes(),
        tracker.per_round_costs(),
        tracker.per_edge_bytes(),
        tracker.stage_bytes(),
        tracker.stage_costs(),
        tracker.records() if tracker.retain_records else None,
        list(calls),
    )


class TestInterleavedRecordAndRecordMany:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(_op, max_size=30),
        retain=st.booleans(),
        as_int=st.sampled_from([int, np.int64]),
    )
    def test_any_interleaving_matches_the_flow_at_a_time_ledger(
        self, ops, retain, as_int
    ):
        """``as_int=np.int64``: rounds and node ids arrive as numpy scalars
        (an ``arange`` element, an ``argmax``) and must be stored as ints."""
        tracker = CommunicationCostTracker(_HOP_MATRIX, retain_records=retain)
        calls = []
        tracker.add_observer(_observed(calls))
        model = _FlowAtATimeLedger()
        for kind, round_index, flows, stage in ops:
            if kind == "many-scalar-hops":
                flows = [(s, d, size, 1) for s, d, size, _ in flows]
            elif kind.endswith("matrix-hops"):
                flows = [
                    (s, d, size, int(_HOP_MATRIX[s, d])) for s, d, size, _ in flows
                ]
            if kind.startswith("one"):
                ((source, destination, size, hops),) = flows

                def call():
                    return tracker.record(
                        as_int(round_index),
                        as_int(source),
                        as_int(destination),
                        size,
                        hops=None if kind == "one-matrix-hops" else as_int(hops),
                        stage=stage,
                    )

                expected = FlowRecord(round_index, source, destination, size, hops)
            else:
                columns = [list(c) for c in zip(*flows)] or [[], [], [], []]
                hops = {"many-scalar-hops": 1, "many-matrix-hops": None}.get(
                    kind, columns[3]
                )

                def call():
                    return tracker.record_many(
                        as_int(round_index), *columns[:3], hops=hops, stage=stage
                    )

                expected = len(flows)
            if round_index < 0:
                # Rounds count from 1: a negative one is refused, unrecorded.
                with pytest.raises(ConfigurationError, match="round_index"):
                    call()
                continue
            assert call() == expected
            model.add(round_index, flows, stage, batch=not kind.startswith("one"))

        assert tracker.n_flows == len(model.flows)
        assert tracker.total_bytes == sum(f[3] for f in model.flows)
        assert tracker.total_cost == sum(f[3] * f[4] for f in model.flows)
        assert tracker.per_round_bytes() == model.per_round(lambda size, hops: size)
        assert tracker.per_round_costs() == model.per_round(
            lambda size, hops: size * hops
        )
        expected = dict(model.per_round(lambda size, hops: size))
        for round_index in range(72):
            assert tracker.round_bytes(round_index) == expected.get(round_index, 0)
        for read in (tracker.round_bytes, tracker.round_cost):
            with pytest.raises(ConfigurationError, match="round_index"):
                read(-1)
        assert tracker.per_edge_bytes() == model.per_edge_bytes()
        assert tracker.stage_bytes() == model.stage_bytes
        assert tracker.stage_costs() == model.stage_costs
        assert calls == model.observed
        if retain:
            records = tracker.records()
            assert records == tuple(FlowRecord(*f) for f in model.flows)
            assert all(
                type(value) is int
                for record in records
                for value in dataclasses.astuple(record)
            )
            assert _flows_of(tracker.flow_columns()) == model.flows
        else:
            with pytest.raises(ConfigurationError):
                tracker.records()
            with pytest.raises(ConfigurationError):
                next(tracker.flow_columns())

    def test_hop_matrix_lookup_agrees_between_the_two_paths(self):
        hops = all_pairs_hop_counts(ring_topology(6))
        scalar, batch = CommunicationCostTracker(hops), CommunicationCostTracker(hops)
        pairs = [(0, 3), (1, 2), (0, 3), (5, 0)]
        for source, destination in pairs:
            scalar.record(2, source, destination, 10)
        batch.record_many(2, *zip(*pairs), [10] * len(pairs))
        assert _snapshot(scalar, []) == _snapshot(batch, [])


class TestRejectionLeavesNoTrace:
    """A rejected flow raises before the ledger or any observer sees it."""

    @staticmethod
    def _primed(hop_counts=None):
        tracker = CommunicationCostTracker(hop_counts)
        calls = []
        tracker.add_observer(_observed(calls))
        tracker.record(1, 0, 1, 10, hops=1, stage="ape")
        tracker.record_many(2, [0, 1], [1, 0], [5, 6], hops=1)
        return tracker, calls

    @pytest.mark.parametrize(
        "bad_call",
        [
            lambda t: t.record(3, 0, 1, -1, hops=1, stage="ape"),
            lambda t: t.record(3, 0, 1, 10, stage="ape"),
            lambda t: t.record(3, 0, 1, 10, hops=-1, stage="ape"),
            lambda t: t.record_many(3, [0, 1], [1, 0], [4, -1], hops=1, stage="ape"),
            lambda t: t.record_many(3, [0], [1], [4], stage="ape"),
            lambda t: t.record_many(3, [0, 1], [1, 0], [4, 4], hops=[1, -1]),
            lambda t: t.record_many(3, [0, 1], [1], [4, 4], hops=1),
            lambda t: t.record(-1, 0, 1, 10, hops=1, stage="ape"),
            lambda t: t.record_many(-1, [0], [1], [4], hops=1, stage="ape"),
        ],
    )
    def test_without_hop_matrix(self, bad_call):
        tracker, calls = self._primed()
        before = _snapshot(tracker, calls)
        with pytest.raises(ConfigurationError):
            bad_call(tracker)
        assert _snapshot(tracker, calls) == before
        # ... and the ledger still works, on a known and on a new edge.
        tracker.record(3, 0, 1, 7, hops=1)
        tracker.record(3, 4, 5, 7, hops=1)
        assert tracker.per_edge_bytes()[(0, 1)] == 10 + 5 + 7
        assert tracker.per_edge_bytes()[(4, 5)] == 7

    @pytest.mark.parametrize(
        "bad_call",
        [
            lambda t: t.record(3, 0, 2, 10),
            lambda t: t.record_many(3, [0, 0], [1, 2], [10, 10]),
        ],
    )
    def test_no_route_in_hop_matrix(self, bad_call):
        from repro.topology.graph import Topology

        topo = Topology(4, [(0, 1), (2, 3)])
        tracker, calls = self._primed(all_pairs_hop_counts(topo))
        before = _snapshot(tracker, calls)
        with pytest.raises(ConfigurationError, match="no route from 0 to 2"):
            bad_call(tracker)
        assert _snapshot(tracker, calls) == before


class TestFlowBatch:
    """A per-edge wire's round batch reads back as one ``record`` per frame."""

    @settings(max_examples=100, deadline=None)
    @given(
        rounds=st.lists(
            st.tuples(
                st.integers(1, 5), st.lists(st.tuples(_flow, _stage), max_size=8)
            ),
            max_size=4,
        )
    )
    def test_flush_equals_a_record_per_flow(self, rounds):
        flushed, per_flow = CommunicationCostTracker(), CommunicationCostTracker()
        flushed_calls, per_flow_calls = [], []
        flushed.add_observer(_observed(flushed_calls))
        per_flow.add_observer(_observed(per_flow_calls))
        writes = []
        record_many = flushed.record_many

        def counted(round_index, *args, **kwargs):
            writes.append(round_index)
            return record_many(round_index, *args, **kwargs)

        flushed.record_many = counted
        batch = FlowBatch()
        expected_writes = []
        for round_index, flows in rounds:
            runs = len(list(groupby(stage for _, stage in flows)))
            expected_writes += [round_index] * runs
            for (source, destination, size, _), stage in flows:
                batch.add(source, destination, size, stage)
                per_flow.record(
                    round_index, source, destination, size, hops=1, stage=stage
                )
            batch.flush(flushed, round_index)

        # One write per run of equal stages; a round without frames writes nothing.
        assert writes == expected_writes
        assert _snapshot(flushed, []) == _snapshot(per_flow, [])
        assert _flat(flushed_calls) == _flat(per_flow_calls)
