"""Reference vs vectorized engine parity for the generic compressors.

The subsystem's contract is that both engines share the compressor
implementations and per-edge state, so every scheme — not just the paper's
presets — must produce the *identical* run on both: same per-round records,
same flow ledger, same final parameters, clean and under the fault plan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compression import APECompressor, EdgeState
from repro.core.ape import APEScheduleBank
from repro.core.selection import select_parameters
from repro.faults.byzantine import SignFlipAttack
from repro.faults.models import (
    GilbertElliottLinkFailures,
    IndependentCorruption,
    MarkovNodeFailures,
    ScheduledCorruption,
)
from repro.faults.plan import FaultPlan
from repro.testing import capture_run
from tests.compression.conftest import EDGES, make_trainer, run_trace

SPECS = [
    "topk:k=3",
    "randomk:k=2",
    "uniform:bits=4",
    "terngrad",
    "ef:topk:k=3",
    "ef:uniform:bits=6",
]


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("spec", SPECS)
def test_engines_agree_bit_for_bit(spec, faulty):
    reference = run_trace(make_trainer("reference", faulty=faulty, compressor=spec))
    vectorized = run_trace(make_trainer("vectorized", faulty=faulty, compressor=spec))
    assert reference == vectorized


def _lossy_links_plan() -> FaultPlan:
    """Link bursts + random frame corruption, every server up."""
    return FaultPlan(
        links=GilbertElliottLinkFailures(0.25, 0.5, seed=11),
        corruption=IndependentCorruption(0.15, seed=13),
    )


def _scheduled_corruption_plan() -> FaultPlan:
    """An explicit schedule, plus node crashes so rounds skip edges entirely."""
    directed = EDGES + [(v, u) for u, v in EDGES]
    return FaultPlan(
        nodes=MarkovNodeFailures(0.12, 0.6, seed=12),
        corruption=ScheduledCorruption(
            {r: directed[r % 5 :: 3] for r in range(1, 31, 2)}
        ),
    )


@pytest.mark.parametrize("plan", [_lossy_links_plan, _scheduled_corruption_plan])
@pytest.mark.parametrize("spec", ["changed_only", "dense"])
def test_threshold_presets_agree_on_full_digest_under_corruption(spec, plan):
    """The two plans of ``tests/core/test_engine_equivalence.py``'s corruption
    matrix (which runs ``ape``), for the other two paper policies."""
    reference, vectorized = (
        capture_run(
            make_trainer(engine, fault_plan=plan(), compressor=spec, max_rounds=30)
        )
        for engine in ("reference", "vectorized")
    )
    assert reference == vectorized, reference.diff(vectorized)


def test_scheme_name_carries_spec_label():
    trainer = make_trainer("reference", compressor="topk:k=3", max_rounds=2)
    result = trainer.run(stop_on_convergence=False)
    assert result.scheme == "snap+topk(k=3)"
    assert result.info["compressor"] == "topk(k=3)"


# -- APECompressor: the batch kernel against the per-edge methods ---------------------

_N, _D = 4, 4
_LINKS = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
#: Directed edges in the engines' order: source ascending, neighbor ascending.
_SRC, _DST = np.array(sorted(_LINKS + [(v, u) for u, v in _LINKS])).T
_E = _SRC.size
#: How an edge's first-round reference sits relative to its source's
#: threshold, per coordinate.
_ZERO, _TIE, _BELOW, _ABOVE = range(4)

#: Multiples of 1/4: with d = 4 the mean |x| and ``x - threshold`` are exact,
#: so a ``_TIE`` coordinate's drift *equals* the threshold.
_grid = st.integers(-16, 16).map(lambda q: q / 4.0)


def _compressors(kind: str) -> list[APECompressor]:
    if kind != "ape":
        return [APECompressor(dense=kind == "dense") for _ in range(_N)]
    # send_threshold == T_k (denominator 1); stages 0.5 -> 0.25 -> 0.125 ->
    # exhausted, at most two rounds each.
    bank = APEScheduleBank(
        _N, initial_threshold=0.5, growth=1.0, stage_iterations=1,
        decay=0.5, epsilon=0.1, max_stage_iterations=2,
    )
    return [APECompressor(schedule=bank[i]) for i in range(_N)]


def _first_references(compressors, tx, relation):
    references = np.empty((_E, _D))
    for e, source in enumerate(_SRC):
        threshold = compressors[source].begin_round(tx[source], 1).get("threshold", 0.0)
        offset = np.choose(
            relation[e], [0.0, threshold, threshold / 2.0, 2.0 * threshold + 1.0]
        )
        references[e] = tx[source] - offset
    return references


@pytest.mark.parametrize("kind", ["ape", "changed_only", "dense"])
@settings(max_examples=40, deadline=None)
@given(
    params=arrays(float, (_N, _D), elements=_grid),
    step=arrays(float, (_N, _D), elements=_grid),
    relation=arrays(np.int64, (_E, _D), elements=st.integers(_ZERO, _ABOVE)),
    down=st.frozensets(st.integers(0, _N - 1), max_size=2),
    attacker=st.none() | st.integers(0, _N - 1),
)
# Every drift equals the threshold: ties are suppressed, every row is empty,
# and the suppressed maximum is the threshold itself.
@example(
    params=np.ones((_N, _D)), step=np.zeros((_N, _D)),
    relation=np.full((_E, _D), _TIE), down=frozenset(), attacker=None,
)
# Node 3 is down: edge 0 -> 3 is the only one out of node 0 with a suppressed
# drift, and it is not eligible, so node 0's suppressed maximum stays 0.
@example(
    params=np.ones((_N, _D)), step=np.zeros((_N, _D)),
    relation=np.where((_SRC == 0) & (_DST == 3), _BELOW, _ZERO)[:, None]
    * np.ones((1, _D), dtype=np.int64),
    down=frozenset({3}), attacker=None,
)
@example(
    params=np.ones((_N, _D)), step=np.full((_N, _D), 0.25),
    relation=np.full((_E, _D), _ABOVE), down=frozenset({1}), attacker=2,
)
def test_batched_ape_equals_per_edge(kind, params, step, relation, down, attacker):
    """``begin_round_batch`` / ``compress_batch`` / ``end_round_batch`` against
    ``begin_round`` / ``compress`` / ``end_round`` edge by edge, three rounds
    with everything sent delivered: payloads, counts, per-source suppressed
    maxima and the Algorithm 1 state must be equal bit for bit."""
    per_edge, batched = _compressors(kind), _compressors(kind)
    attack = SignFlipAttack(scale=2.0)
    active = np.ones(_N, dtype=bool)
    active[list(down)] = False
    nodes = np.flatnonzero(active)
    eligible = np.flatnonzero(active[_SRC] & active[_DST])
    references = None
    for round_index in (1, 2, 3):
        tx = params + (round_index - 1) * step
        if attacker is not None:
            tx[attacker] = attack.transmit(tx[attacker], attacker, round_index)
        if references is None:
            references = _first_references(per_edge, tx, relation)

        expected, suppressed, restarts = {}, np.zeros(_N), []
        for i in nodes.tolist():
            ctx = per_edge[i].begin_round(tx[i], round_index)
            for e in eligible[_SRC[eligible] == i].tolist():
                state = EdgeState(i, int(_DST[e]), reference=references[e])
                expected[e] = per_edge[i].compress(tx[i], state, ctx)
                if kind != "dense":
                    selection = select_parameters(
                        tx[i], references[e], ctx["threshold"]
                    )
                    assert np.array_equal(expected[e].indices, selection.indices)
            suppressed[i] = ctx.get("suppressed_max", 0.0)
            if per_edge[i].end_round(ctx):
                restarts.append(i)

        sources = _SRC[eligible]
        ctxs = batched[0].begin_round_batch(tx, nodes, round_index, batched)
        batch = batched[0].compress_batch(
            tx[sources], references[eligible], None, ctxs[sources]
        )
        restarting = batched[0].end_round_batch(ctxs, nodes, batched)

        assert len(batch) == eligible.size
        for row, e in enumerate(eligible.tolist()):
            payload = batch[row]
            assert payload.indices.dtype == expected[e].indices.dtype
            assert np.array_equal(payload.indices, expected[e].indices)
            assert np.array_equal(payload.values, expected[e].values)
            assert batch.n_sent[row] == expected[e].n_sent
        if kind == "ape":
            assert np.array_equal(ctxs.suppressed_max, suppressed)
            for column in ("thresholds", "accumulated", "iterations_in_stage", "stages"):
                assert np.array_equal(
                    getattr(batched[0].schedule.bank, column),
                    getattr(per_edge[0].schedule.bank, column),
                ), column
        assert restarting.tolist() == restarts

        batch.deliver(references, eligible, np.ones(eligible.size, dtype=bool))
        for e, payload in expected.items():
            assert np.array_equal(references[e][payload.indices], payload.values)
