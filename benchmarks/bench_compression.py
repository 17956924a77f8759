"""Compression frontier benchmark: bytes on the wire vs model quality.

Runs the same logistic workload under every compressor the subsystem ships
— the paper's APE preset, its SNAP-0/SNO comparison points, Top-k/Random-k
sparsification, b-bit uniform quantization, and TernGrad — and records each
scheme's total traffic, final loss, and held-out accuracy. The committed
``BENCH_compression.json`` is the bytes-vs-accuracy frontier the README's
compressor table summarizes.

Usage::

    make bench-compression
    python benchmarks/bench_compression.py --out BENCH_compression.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SPECS = (
    "ape",
    "changed_only",
    "dense",
    "topk:k=16",
    "randomk:k=16",
    "uniform:bits=4",
    "terngrad",
)

N_SERVERS = 12
N_FEATURES = 24
SAMPLES_PER_SHARD = 120
N_TEST = 600
MAX_ROUNDS = 120
SEED = 0


def build_workload():
    import numpy as np

    from repro.data.dataset import Dataset
    from repro.models.logistic import LogisticRegression
    from repro.topology.generators import random_regular_topology

    rng = np.random.default_rng(SEED)
    true_w = rng.normal(size=N_FEATURES)

    def draw(n):
        X = rng.normal(size=(n, N_FEATURES))
        y = (X @ true_w + 0.5 * rng.normal(size=n) > 0).astype(float)
        return Dataset(X, y)

    shards = [draw(SAMPLES_PER_SHARD) for _ in range(N_SERVERS)]
    test_set = draw(N_TEST)
    model = LogisticRegression(N_FEATURES)
    topology = random_regular_topology(N_SERVERS, degree=4, seed=3)
    return model, shards, topology, test_set


def run_spec(spec: str) -> dict:
    from repro.core.config import SNAPConfig
    from repro.core.trainer import SNAPTrainer

    model, shards, topology, test_set = build_workload()
    config = SNAPConfig(
        engine="vectorized",
        max_rounds=MAX_ROUNDS,
        seed=7,
        compressor=spec,
    )
    trainer = SNAPTrainer(model, shards, topology, config)
    start = time.perf_counter()
    result = trainer.run(test_set=test_set, stop_on_convergence=False)
    elapsed = time.perf_counter() - start
    return {
        "spec": spec,
        "scheme": result.scheme,
        "rounds": len(result.rounds),
        "total_bytes": int(trainer.tracker.total_bytes),
        "bytes_per_round": trainer.tracker.total_bytes / len(result.rounds),
        "final_loss": result.rounds[-1].mean_loss,
        "final_accuracy": result.final_accuracy,
        "seconds": elapsed,
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_compression.json"
    )
    args = parser.parse_args(argv)

    cells = []
    for spec in SPECS:
        cell = run_spec(spec)
        cells.append(cell)
        print(
            f"{cell['scheme']:<24} rounds={cell['rounds']:<4} "
            f"bytes={cell['total_bytes']:<9} "
            f"loss={cell['final_loss']:.4f} acc={cell['final_accuracy']:.4f}"
        )

    dense_bytes = next(c for c in cells if c["spec"] == "dense")["total_bytes"]
    for cell in cells:
        cell["bytes_vs_dense"] = cell["total_bytes"] / dense_bytes

    report = {
        "benchmark": "compression_frontier",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": {
            "model": f"logistic({N_FEATURES})",
            "n_servers": N_SERVERS,
            "samples_per_shard": SAMPLES_PER_SHARD,
            "n_test": N_TEST,
            "max_rounds": MAX_ROUNDS,
            "topology": "random_regular(degree=4, seed=3)",
        },
        "cells": cells,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
