"""DENSE (SNO) traffic matches the analytic Fig. 3 dense-frame size.

With nothing suppressed (``M = 0``) the UNCHANGED_INDEX formula
``4 + 4M + 8(N - M)`` collapses to ``4 + 8N`` bytes per message — every
delivered flow in a DENSE run must charge exactly that, every round, on
both engines.
"""

from __future__ import annotations

import pytest

from repro.network.frames import FLOAT_BYTES, INT_BYTES

from tests.compression.conftest import EDGES, make_trainer


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
def test_every_dense_flow_charges_the_analytic_size(engine):
    trainer = make_trainer(engine, compressor="dense", max_rounds=8)
    result = trainer.run(stop_on_convergence=False)
    n = trainer.model.n_params
    dense_bytes = INT_BYTES + FLOAT_BYTES * n  # 4 + 8N - 4M with M = 0
    records = trainer.tracker.records()
    assert records, "a dense run must produce traffic"
    assert all(flow.size_bytes == dense_bytes for flow in records)
    # Per-round totals: 2 directed flows per undirected link, every round.
    expected_round = 2 * len(EDGES) * dense_bytes
    assert all(r.bytes_sent == expected_round for r in result.rounds)
    # And the per-round ledger has exactly one record per directed link.
    by_round: dict[int, int] = {}
    for flow in records:
        by_round[flow.round_index] = by_round.get(flow.round_index, 0) + 1
    assert set(by_round.values()) == {2 * len(EDGES)}
