"""Tier-2 performance smoke test: the vectorized engine must actually be fast.

The full scaling study lives in ``benchmarks/bench_engine_scaling.py`` (run
via ``make bench``); this is the cheap CI guard that the fast path has not
silently regressed into reference-speed territory. The ISSUE-2 acceptance
bar is >=10x at N=128; the smoke test asserts a conservative >=5x at N=64 so
machine noise on loaded CI workers cannot flake it. (The MLP's grouped
kernels are guarded by a call count in ``tests/core/test_trainer.py``, not
by a clock.)
"""

import resource
import time

import numpy as np
import pytest

from repro.core.config import SNAPConfig
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.models.logistic import LogisticRegression
from repro.topology.generators import random_regular_topology

N_NODES = 64
N_FEATURES = 10
SAMPLES_PER_SHARD = 30


def _make_trainer(engine: str) -> SNAPTrainer:
    rng = np.random.default_rng(42)
    shards = []
    for _ in range(N_NODES):
        X = rng.normal(size=(SAMPLES_PER_SHARD, N_FEATURES))
        w = rng.normal(size=N_FEATURES)
        shards.append(Dataset(X, (X @ w > 0).astype(float)))
    topology = random_regular_topology(N_NODES, degree=4, seed=3)
    config = SNAPConfig(
        engine=engine,
        max_rounds=10_000,
        seed=7,
        optimize_weights=False,
        retain_flow_records=False,
    )
    return SNAPTrainer(LogisticRegression(N_FEATURES), shards, topology, config)


def _rounds_per_second(engine: str, rounds: int) -> float:
    trainer = _make_trainer(engine)
    trainer.run(max_rounds=2, stop_on_convergence=False)  # warm-up
    start = time.perf_counter()
    trainer.run(max_rounds=rounds, stop_on_convergence=False)
    return rounds / (time.perf_counter() - start)


@pytest.mark.perf
def test_vectorized_beats_reference_5x_at_n64():
    reference = _rounds_per_second("reference", rounds=8)
    vectorized = _rounds_per_second("vectorized", rounds=80)
    speedup = vectorized / reference
    assert speedup >= 5.0, (
        f"vectorized engine only {speedup:.1f}x faster than reference at "
        f"N={N_NODES} ({vectorized:.1f} vs {reference:.1f} rounds/s)"
    )


@pytest.mark.perf
def test_retention_off_bounds_memory_at_n512():
    """A retention-off N=512 run must stay within a modest RSS budget.

    With ``retain_flow_records=False``, ``sparse_weights=True`` and the
    columnar telemetry layer, the tracker and result hold O(rounds + edges)
    state — nothing proportional to rounds x edges. The 512 MiB ceiling is
    far above the steady-state footprint (~tens of MiB above the Python
    baseline) but far below what a retained per-flow ledger or a dense
    (N, N) weight matrix path would consume at this scale.
    """
    rng = np.random.default_rng(0)
    n, d = 512, 16
    shards = []
    for _ in range(n):
        X = rng.normal(size=(10, d))
        w = rng.normal(size=d)
        shards.append(Dataset(X, (X @ w > 0).astype(float)))
    topology = random_regular_topology(n, degree=4, seed=1)
    config = SNAPConfig(
        engine="vectorized",
        max_rounds=40,
        seed=7,
        optimize_weights=False,
        sparse_weights=True,
        retain_flow_records=False,
    )
    trainer = SNAPTrainer(LogisticRegression(d), shards, topology, config)
    trainer.run(stop_on_convergence=False)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert peak_mib < 512, (
        f"peak RSS {peak_mib:.0f} MiB at N={n} with retention off; the "
        "memory-bounded fast path must stay well under 512 MiB"
    )
