"""One message per distinct reference is exact: the per-edge engines against
the vectorized one, with link outages splitting each sender's references.

``SNAPTrainer.send_round`` builds one message for all the neighbors whose
reference is bitwise equal and hands it to each. Under bursty link outages
a node's neighbors hold different references, so within one round one
sender builds several messages, some shared and some not. The vectorized
engine runs none of that code — it selects every edge row against its own
reference — so it is the oracle: per-round parameter stacks, per-round
bytes and the per-round ``server_state_sha`` must all be equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.data.dataset import Dataset
from repro.faults import FaultPlan, GilbertElliottLinkFailures
from repro.models.logistic import LogisticRegression
from repro.testing.digest import server_state_sha
from repro.topology.generators import random_regular_topology

ROUNDS = 10
N_NODES, DEGREE, N_PARAMS = 8, 4, 5
COMPRESSORS = ["ape", "changed_only", "dense", "topk:k=3", "uniform:bits=4"]


def _inputs():
    rng = np.random.default_rng(3)
    shards = []
    for _ in range(N_NODES):
        X = rng.normal(size=(30, N_PARAMS))
        shards.append(Dataset(X, (X @ rng.normal(size=N_PARAMS) > 0).astype(float)))
    topology = random_regular_topology(N_NODES, degree=DEGREE, seed=5)
    return LogisticRegression(N_PARAMS), shards, topology


def _plan() -> FaultPlan:
    # Fresh per run: a link chain binds to the first run that queries it.
    return FaultPlan(links=GilbertElliottLinkFailures(0.3, 0.5, seed=9))


def _config(engine: str, compressor: str) -> SNAPConfig:
    return SNAPConfig(
        engine=engine, compressor=compressor, seed=7, optimize_weights=False
    )


def _observe(trainer) -> list:
    """Subscribe a per-round capture: (stack, bytes, server_state_sha)."""
    rounds = []

    def capture(record):
        stack = trainer.engine.state().params.copy()
        rounds.append((stack, record.bytes_sent, server_state_sha(trainer)))

    trainer.add_round_observer(capture)
    return rounds


def _reference_groups(trainer) -> list[tuple[int, int]]:
    """Wrap the trainer's sender: per call, (live neighbors, distinct references)."""
    groups = []
    send_round = trainer.send_round

    def counting(server, round_index, down, transmit, offline=None):
        live = [j for j in server.neighbors if j not in down]
        distinct = {server.last_sent[j].tobytes() for j in live}
        groups.append((len(live), len(distinct)))
        return send_round(server, round_index, down, transmit, offline)

    trainer.send_round = counting
    return groups


def _run(engine: str, compressor: str):
    model, shards, topology = _inputs()
    config = _config("reference" if engine == "testbed" else engine, compressor)
    if engine == "testbed":
        from repro.runtime import TestbedRuntime

        testbed = TestbedRuntime(
            model, shards, topology, config=config, fault_plan=_plan()
        )
        trainer = testbed.trainer
        rounds, groups = _observe(trainer), _reference_groups(trainer)
        testbed.run(ROUNDS)
    else:
        trainer = SNAPTrainer(model, shards, topology, config, fault_plan=_plan())
        rounds, groups = _observe(trainer), _reference_groups(trainer)
        trainer.run(max_rounds=ROUNDS, stop_on_convergence=False)
    return rounds, groups


@pytest.fixture(scope="module")
def oracle():
    """The vectorized engine's per-round capture, per compressor."""
    return {compressor: _run("vectorized", compressor)[0] for compressor in COMPRESSORS}


@pytest.mark.parametrize("compressor", COMPRESSORS)
@pytest.mark.parametrize("engine", ["reference", "semisync", "testbed"])
def test_shared_messages_match_the_vectorized_engine(oracle, engine, compressor):
    rounds, groups = _run(engine, compressor)
    expected = oracle[compressor]
    assert len(rounds) == len(expected) == ROUNDS
    for index, ((stack, sent, sha), (stack_v, sent_v, sha_v)) in enumerate(
        zip(rounds, expected), start=1
    ):
        assert stack.tobytes() == stack_v.tobytes(), f"round {index}: stacks differ"
        assert sent == sent_v, f"round {index}: bytes {sent} != {sent_v}"
        assert sha == sha_v, f"round {index}: server_state_sha differs"
    # The outages did split references: some sender held several distinct
    # references in one round, with at least two neighbors sharing one.
    assert any(1 < distinct < live for live, distinct in groups), groups
