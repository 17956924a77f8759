"""Columnar round-trace and delivered-edge containers behave like the
object collections they replaced."""

import numpy as np
import pytest

from repro.core.engine import DeliveredEdges
from repro.results import RoundRecord, RoundTrace


def _record(i, accuracy=None):
    return RoundRecord(
        round_index=i,
        mean_loss=0.5 / i,
        consensus_error=0.1 / i,
        bytes_sent=100 * i,
        cost=100 * i,
        params_sent=10 * i,
        accuracy=accuracy,
        stale_links=i % 3,
        max_staleness=i % 2,
        connected=(i % 2 == 0),
    )


class TestRoundTrace:
    def test_appends_and_materializes_python_types(self):
        trace = RoundTrace()
        trace.append(_record(1, accuracy=0.75))
        trace.append(_record(2))
        assert len(trace) == 2
        first = trace[0]
        assert first == _record(1, accuracy=0.75)
        assert type(first.round_index) is int
        assert type(first.mean_loss) is float
        assert first.accuracy == 0.75
        assert trace[1].accuracy is None

    def test_negative_index_and_slice(self):
        trace = RoundTrace([_record(i) for i in range(1, 6)])
        assert trace[-1] == _record(5)
        assert trace[1:3] == [_record(2), _record(3)]

    def test_equality_against_lists_both_ways(self):
        records = [_record(i) for i in range(1, 4)]
        trace = RoundTrace(records)
        assert trace == records
        assert records == trace
        assert trace != records[:-1]

    def test_growth_beyond_initial_capacity(self):
        count = 300
        trace = RoundTrace()
        for i in range(1, count + 1):
            trace.append(_record(i))
        assert len(trace) == count
        assert trace[count - 1].round_index == count
        assert list(trace)[0] == _record(1)

    def test_columnar_views(self):
        trace = RoundTrace([_record(i) for i in range(1, 5)])
        assert np.array_equal(trace.bytes_array(), [100, 200, 300, 400])
        assert trace.loss_array().shape == (4,)


class TestDeliveredEdges:
    def test_columns_from_pairs(self):
        delivered = DeliveredEdges.from_pairs([(0, 1), (1, 2), (2, 0)])
        assert len(delivered) == 3
        assert delivered.sources.dtype == delivered.destinations.dtype == np.int64
        assert delivered.sources.tolist() == [0, 1, 2]
        assert delivered.destinations.tolist() == [1, 2, 0]

    def test_empty(self):
        empty = DeliveredEdges.from_pairs([])
        assert len(empty) == 0
        assert empty.sources.shape == empty.destinations.shape == (0,)
