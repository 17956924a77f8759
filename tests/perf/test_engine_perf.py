"""Tier-2 performance smoke test: the memory-bounded fast path stays bounded.

The full scaling study lives in ``benchmarks/bench_engine_scaling.py`` (run
via ``make bench``). The vectorized engine's speed is guarded by Python call
counts in ``tests/core/test_trainer.py`` (``TestVectorizedRoundCallCount``),
not by a clock: a wall-clock ratio on a loaded CI worker measures the worker.
"""

import resource

import numpy as np
import pytest

from repro.core.config import SNAPConfig
from repro.core.trainer import SNAPTrainer
from repro.data.dataset import Dataset
from repro.models.logistic import LogisticRegression
from repro.topology.generators import random_regular_topology


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
