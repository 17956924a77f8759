"""Golden digests of runs that swap topology mid-run, on two engines.

The adaptive differential cases only check that the engines *agree* on a
swap. Every engine goes through the same swap path, so a mistake in that
path would move them together and still agree. These pins hold the
absolute trajectory: the full :class:`~repro.testing.digest.RunDigest`
(round trace, flow ledger, final parameters, server state, totals, final
loss) of each swapping run, on the reference and the vectorized engine.

Runs pinned:

* the five hand-built cases of
  ``tests/differential/test_adaptive_differential.py`` (prunes, knob swaps,
  a churn trigger, REWEIGHT, per-edge random-k streams);
* a manual drop of chord ``(0, 3)`` and its re-add, with rounds between;
* a bytes-budget run on credit SVM (N=8) whose three periodic swaps step
  ``uniform:bits=8`` down the ladder to ``bits=2``.

Not marked ``differential``: each run takes a fraction of a second. A pin
moving means a swap changed numerically; update it only with the reason.
"""

from __future__ import annotations

import json

import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.simulation.experiments import credit_svm_workload
from repro.testing.differential import run_scenario
from repro.testing.digest import RunDigest
from tests.core.test_topology_readd import manual_swap_trainer, run_manual_drop_readd
from tests.differential.test_adaptive_differential import CASES

ENGINES = ("reference", "vectorized")


def pinned(digest: RunDigest) -> dict:
    return json.loads(digest.to_json())


def manual_swap_digest(engine: str) -> RunDigest:
    """Four rounds, drop chord (0, 3), three rounds, re-add it, four rounds."""
    trainer = manual_swap_trainer(engine)
    result = run_manual_drop_readd(trainer)
    return RunDigest.capture(trainer, result)


def credit_trainer(engine: str, **overrides) -> SNAPTrainer:
    """Adaptive credit SVM, N=8, seed 1, 40 rounds, a cycle every 5 rounds."""
    workload = credit_svm_workload(n_servers=8, seed=1)
    config = SNAPConfig(
        engine=engine,
        adaptive_topology=True,
        topology_reoptimize_every=5,
        max_rounds=40,
        seed=1,
        **overrides,
    )
    return SNAPTrainer(workload.model, workload.shards, workload.topology, config)


def budget_digest(engine: str) -> RunDigest:
    trainer = credit_trainer(engine, compressor="uniform:bits=8", bytes_budget=20_000)
    result = trainer.run(stop_on_convergence=False)
    swaps = trainer._topology_controller.swaps
    assert [(s.round_index, s.reason) for s in swaps] == [
        (5, "periodic"),
        (10, "periodic"),
        (15, "periodic"),
    ]
    assert swaps[-1].compressor_spec.params_dict()["bits"] == 2
    return RunDigest.capture(trainer, result)


GOLDEN = {
    "ape-preset-pruning": {
        "rounds_sha": "b6d5fd9f9108b87f41c3aacdf2336e78e8da899e9c89de0e72df5a6ce06d0b68",
        "ledger_sha": "0e4766d83c0106828e16ea7719080ac771afd30bce775ad991002a381f42acdc",
        "final_params_sha": "fcd0b876c3428064b338ae449daaafb25accfc5021230231d78713d95638387d",
        "server_state_sha": "30f1e312a524fa60050aff83fd31b0604ee1287c71a4b47718c97ff134db2d20",
        "total_bytes": 12696,
        "total_cost": 12696,
        "final_loss": "0x1.eb1dcfa2df2aep-2",
        "version": 1,
    },
    "uniform-knob": {
        "rounds_sha": "5db87f116dbf4a1d805cdeaa5a7773ef46d90dd4138899e859ba845ed51ca7b0",
        "ledger_sha": "7cd9893b66ac041be13c394eaa9c09e04e9841385a9d40013771de06b9bc58f3",
        "final_params_sha": "aaafb6dc8daea073d8c532653268dad4a2460bfb162f7d0733e25de3ed9f6fdd",
        "server_state_sha": "0d0492df8acd4238aa2aa2d9b2f5282eb231f21d257c9b2126293408f04bd8bc",
        "total_bytes": 4298,
        "total_cost": 4298,
        "final_loss": "0x1.47a08540d2c32p-1",
        "version": 1,
    },
    "churn-trigger": {
        "rounds_sha": "0ce9426a4c1d0cc69dbb44c1cd93638b77154a9feca48a773e67abfb421d1299",
        "ledger_sha": "b31501101c57c77fbd36067f66dccf94328c876c3721f582858618d06303c689",
        "final_params_sha": "ca213c616303b5c0385be4dc8d6b1cc6ef5e1d48fa5e4e862889af04b2a4f699",
        "server_state_sha": "590375d2be64ca53f4914c9bef0c10bb1ca68c355338a9370c55d443ac87a9bc",
        "total_bytes": 6408,
        "total_cost": 6408,
        "final_loss": "0x1.0b4e76a86c9cep-1",
        "version": 1,
    },
    "svm-reweight": {
        "rounds_sha": "6d825192e9198d55dda340ab6599041feac0c20883f48d54dbcc8d968f9b1e24",
        "ledger_sha": "b021cdf24868c2d51a8ca4251283a8bda17437672f2b89e6282dcd7d6b12c237",
        "final_params_sha": "cb4fc14c00ec5faf6affe1600c9b69bbbd454920182cfbf081c21612594b94f4",
        "server_state_sha": "5f618debff9a8e3ac17bae49a0f5a7d0e619726e4c1a2180a566382551af4028",
        "total_bytes": 12688,
        "total_cost": 12688,
        "final_loss": "0x1.da938f1e39496p-1",
        "version": 1,
    },
    "randomk-edge-streams": {
        "rounds_sha": "1f4ee07ac836f90bce5a6774eb6f956ab01e2258dc7d0010f7c64477117707ff",
        "ledger_sha": "f215eb432468f3c305cad2f5b4c8a745cab7a74349f0e960972a0342f0c0a3f8",
        "final_params_sha": "793aac2aecf421a01a8fcab9ca5b80c51eb3bbb1f391b5677c1ffaf20f1cdbd4",
        "server_state_sha": "ee5dd1ed52d8fab07472aa7eac44b890d8a765df458619ff876e4c22bf92fef4",
        "total_bytes": 4944,
        "total_cost": 4944,
        "final_loss": "0x1.4c0a0d925367ep-1",
        "version": 1,
    },
    "manual-drop-readd": {
        "rounds_sha": "323f0468724b694410e0e2a7838aa1c5b573039fe29f807cb0be1e18e7cfdcdb",
        "ledger_sha": "10aa9a995ebe310b9fb5a684fc6c9a29278590a6dbbdc01e9a00e1df890e957c",
        "final_params_sha": "0247cd7905bb7cc8b9c70628077b41fb0e32f5305b633e4c29d30f9e0fa80a0c",
        "server_state_sha": "ddaac314dee15a45e3dee51d7bcfe13605b8f95641eaf6c6b6e6ed6aa4a443af",
        "total_bytes": 10900,
        "total_cost": 10900,
        "final_loss": "0x1.f3ff4d2b4e8bfp-2",
        "version": 1,
    },
    "uniform-bytes-budget": {
        "rounds_sha": "5c08ca3a0cce1c8156cb867e8390ab1c2fc84620cc4d2eda61a0ae3f32f51375",
        "ledger_sha": "7eaf6a2c72b84c30189b7c3c04e747ff60b583190334c5265906518785003df2",
        "final_params_sha": "31f70031d599a4090719b938fafc15f79bd628dab132303eeed6f273827bd905",
        "server_state_sha": "572c20c30eb2d63ecd11a420db0dc299c020db1e34b8ff04c3654ebb1ba5debb",
        "total_bytes": 53250,
        "total_cost": 53250,
        "final_loss": "0x1.bbe7d9a447480p-2",
        "version": 1,
    },
}


@pytest.mark.parametrize(
    "label, scenario", [case[:2] for case in CASES], ids=[case[0] for case in CASES]
)
def test_adaptive_case_digests_are_pinned(label, scenario):
    report = run_scenario(scenario, invariants="strict", engines=ENGINES)
    assert report.ok, report.detail
    for engine in ENGINES:
        assert pinned(report.digests[engine]) == GOLDEN[label], engine


@pytest.mark.parametrize("engine", ENGINES)
def test_manual_drop_and_readd_digest_is_pinned(engine):
    assert pinned(manual_swap_digest(engine)) == GOLDEN["manual-drop-readd"]


@pytest.mark.parametrize("engine", ENGINES)
def test_bytes_budget_digest_is_pinned(engine):
    assert pinned(budget_digest(engine)) == GOLDEN["uniform-bytes-budget"]
