"""Streaming digest property: incremental per-round hashing == retained-trace path.

The streaming telemetry layer folds round-trace and flow-ledger entries into
the two SHA-256 accumulators as they happen, instead of hashing retained
object lists after the run. The digests must be byte-identical — same
``DIGEST_VERSION`` recipe — across generated scenarios and all three
engines, including with per-flow record retention switched off (the
configuration large-N runs use).
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.engine import EngineState
from repro.core.trainer import SNAPTrainer
from repro.network.cost import CommunicationCostTracker
from repro.testing.differential import ENGINES
from repro.testing.digest import (
    DigestStream,
    RunDigest,
    capture_run,
    flow_trace_entry,
)
from repro.testing.scenarios import ScenarioGen

N_SCENARIOS = 10


def _trainer(scenario, engine, *, retain):
    config = dataclasses.replace(
        scenario.config(engine), retain_flow_records=retain
    )
    return SNAPTrainer(
        scenario.model(),
        scenario.shards(),
        scenario.topology(),
        config,
        fault_plan=scenario.fault_plan(),
    )


@pytest.mark.parametrize("index", range(N_SCENARIOS))
@pytest.mark.parametrize("engine", ENGINES)
def test_streaming_digest_equals_retained(index, engine):
    scenario = ScenarioGen(master_seed=7).scenario(index)
    retained = capture_run(_trainer(scenario, engine, retain=True))
    streamed = capture_run(
        _trainer(scenario, engine, retain=False), streaming=True
    )
    assert streamed == retained, (
        f"streaming digest diverged from the retained-trace recipe on "
        f"{scenario.describe()} ({engine}):\n{retained.diff(streamed)}"
    )


def test_streaming_hashes_match_bytewise_not_just_compare_equal():
    """The streamed SHA-256 hexdigests themselves equal the retained ones."""
    scenario = ScenarioGen(master_seed=7).scenario(0)
    retained = capture_run(_trainer(scenario, "vectorized", retain=True))
    streamed = capture_run(
        _trainer(scenario, "vectorized", retain=False), streaming=True
    )
    assert streamed.rounds_sha == retained.rounds_sha
    assert streamed.ledger_sha == retained.ledger_sha
    assert streamed.final_params_sha == retained.final_params_sha


def test_streaming_preserves_ledger_hash_where_legacy_capture_cannot():
    """With retention off the legacy path hashes an empty ledger; streaming
    still produces the true flow-ledger hash because it observed every batch
    as it was recorded."""
    scenario = ScenarioGen(master_seed=7).scenario(0)
    retained = capture_run(_trainer(scenario, "vectorized", retain=True))
    legacy_unretained = capture_run(_trainer(scenario, "vectorized", retain=False))
    streamed = capture_run(
        _trainer(scenario, "vectorized", retain=False), streaming=True
    )
    assert legacy_unretained.ledger_sha != retained.ledger_sha
    assert streamed.ledger_sha == retained.ledger_sha


@pytest.mark.parametrize("as_int", [int, np.int64])
def test_numpy_integer_rounds_hash_like_python_ints(as_int):
    """A round index (or node id) that arrives as ``np.int64`` is stored as a
    plain int: the retained ledger reads back the entries the stream hashed,
    not ``(np.int64(3), 0, 1, 10, 1)`` with its different ``repr``."""
    tracker = CommunicationCostTracker()
    # The slice of a trainer the two digest paths read: an engine with no
    # nodes and no edges.
    nodes, rows = np.zeros(0, dtype=np.int64), np.zeros((0, 1))
    empty = EngineState(
        params=rows,
        previous_params=rows,
        previous_gradient=rows,
        has_previous=nodes.astype(bool),
        has_previous_views=nodes.astype(bool),
        iteration=nodes,
        src=nodes,
        dst=nodes,
        views=rows,
        last_sent=rows,
        fresh=nodes.astype(bool),
        previous_views=rows,
        previous_fresh=nodes.astype(bool),
    )
    trainer = SimpleNamespace(
        tracker=tracker,
        add_round_observer=lambda observer: None,
        engine=SimpleNamespace(state=lambda: empty),
        _schedules=None,
    )
    result = SimpleNamespace(rounds=[], final_params=np.zeros(1))
    stream = DigestStream(trainer)
    tracker.record_many(as_int(3), [0], [1], [10], hops=1)
    tracker.record(as_int(4), as_int(1), as_int(0), 7, hops=as_int(2))
    retained = RunDigest.capture(trainer, result)
    assert retained.ledger_trace == tuple(
        flow_trace_entry(flow) for flow in tracker.records()
    )
    assert repr(retained.ledger_trace) == "((3, 0, 1, 10, 1), (4, 1, 0, 7, 2))"
    assert repr(tracker.records()[0]) == (
        "FlowRecord(round_index=3, source=0, destination=1, size_bytes=10, hops=1)"
    )
    assert retained.ledger_sha == stream.finalize(result).ledger_sha
