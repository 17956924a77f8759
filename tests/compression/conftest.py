"""Shared harness for the compression test suite.

A small but non-trivial mesh (6 logistic-regression servers, 7 links, one
chord) that exercises every compressor code path: the clean variant runs the
pure round loop, the faulty variant layers Gilbert-Elliott link losses,
Markov node outages and payload corruption on top, so delivery/drop hooks
and down-peer skips all fire.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SNAPConfig
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.faults.models import (
    GilbertElliottLinkFailures,
    IndependentCorruption,
    MarkovNodeFailures,
)
from repro.faults.plan import FaultPlan
from repro.models.logistic import LogisticRegression
from repro.testing import capture_run
from repro.topology.graph import Topology

N_NODES = 6
EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]
N_PARAMS = 5


def make_shards(seed: int = 1, n: int = 40, d: int = N_PARAMS) -> list[Dataset]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(N_NODES):
        X = rng.normal(size=(n, d))
        w = rng.normal(size=d)
        y = (X @ w + 0.3 * rng.normal(size=n) > 0).astype(float)
        out.append(Dataset(X, y))
    return out


def make_fault_plan() -> FaultPlan:
    return FaultPlan(
        links=GilbertElliottLinkFailures(0.25, 0.5, seed=11),
        nodes=MarkovNodeFailures(0.12, 0.6, seed=12),
        corruption=IndependentCorruption(0.08, seed=13),
    )


def make_trainer(
    engine: str, faulty: bool = False, fault_plan: FaultPlan | None = None,
    **config_kwargs,
) -> SNAPTrainer:
    """``fault_plan`` overrides the stock ``faulty`` plan with the caller's own."""
    config_kwargs.setdefault("max_rounds", 25)
    if fault_plan is None and faulty:
        fault_plan = make_fault_plan()
    if "selection" in config_kwargs:  # the golden pins' name for a preset
        config_kwargs["compressor"] = config_kwargs.pop("selection")
    config = SNAPConfig(
        engine=engine, seed=7, optimize_weights=False, **config_kwargs
    )
    return SNAPTrainer(
        LogisticRegression(N_PARAMS),
        make_shards(),
        Topology(N_NODES, EDGES),
        config,
        fault_plan=fault_plan,
    )


def run_digest(trainer: SNAPTrainer) -> dict:
    """Legacy golden-pin dict, now via :class:`repro.testing.RunDigest`.

    The digest's hashing recipe is byte-identical to the one the golden
    values were captured with (the duplicated code that used to live here).
    """
    return capture_run(trainer).pinned()


def run_trace(trainer: SNAPTrainer) -> tuple:
    """Full comparable trace: per-round records, flow ledger, final params.

    Leaves out the digest's ``server_state_sha``: what a run sent and
    where it ended is what these comparisons pin.
    """
    digest = capture_run(trainer)
    return digest.rounds_trace, digest.ledger_trace, digest.final_params_sha


@pytest.fixture(scope="module")
def mesh_setup():
    return (
        LogisticRegression(N_PARAMS),
        make_shards(),
        Topology(N_NODES, EDGES),
    )
