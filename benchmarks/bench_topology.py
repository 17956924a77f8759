"""Adaptive topology benchmark: the joint controller's frontier position.

Two measurements back the adaptive runtime's claims with numbers:

**Frontier dominance.** The same workload as ``bench_compression.py``
(logistic(24), 12 servers, random-regular degree-4, 120 rounds) is re-run
with the :class:`~repro.weights.adaptive.TopologyController` armed —
pruning near-zero-weight links mid-run, and (for the joint cell) stepping
the quantizer's bit knob against a total-bytes budget. Each adaptive cell
is compared against the committed ``BENCH_compression.json`` frontier: a
cell *dominates* a fixed-spec point when it spends strictly fewer total
bytes at equal-or-better final accuracy. The acceptance bar is the joint
controller dominating at least :data:`MIN_DOMINATED` fixed points.

**Warm-start cost.** At N=64 (ring + an embedded 6-clique + one long
chord) the optimizer drives the clique's redundant links to near-zero
weight; pruning them and re-solving warm-started lands within noise of the
pruned optimum immediately, while a cold solve pays
:data:`MIN_WARM_RATIO` x more subgradient steps to reach the same
objective (within ``1e-6``, the resolution of the subgradient traces).

``--check`` re-runs the joint cell and the warm-start measurement and
fails if either acceptance bar regressed or the joint cell ends on the
compressor it started with (a budget that never steps the knob measures
nothing joint) — the CI smoke gate.

Usage::

    make bench-topology
    python benchmarks/bench_topology.py --out BENCH_topology.json
    python benchmarks/bench_topology.py --check
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
COMPRESSION_BASELINE = REPO_ROOT / "BENCH_compression.json"

#: Acceptance bars (ISSUE 8).
MIN_DOMINATED = 2
MIN_WARM_RATIO = 5.0

#: (cell name, SNAPConfig overrides) — every cell arms the controller on
#: the bench_compression workload. The joint cell's budget sits below the
#: ~336 kB its 8-bit quantizer spends unbudgeted, so the projection steps
#: the bit knob down (8 -> 2 bits on this workload); ``--check`` fails if it
#: ends on its starting spec.
ADAPTIVE_CELLS = (
    (
        "adaptive:ape",
        dict(
            compressor="ape",
            topology_reoptimize_every=20,
            topology_prune_threshold=0.05,
        ),
    ),
    (
        "adaptive:uniform8+budget",
        dict(
            compressor="uniform:bits=8",
            topology_reoptimize_every=10,
            topology_prune_threshold=0.05,
            bytes_budget=300_000,
        ),
    ),
    (
        "adaptive:uniform4",
        dict(
            compressor="uniform:bits=4",
            topology_reoptimize_every=20,
            topology_prune_threshold=0.05,
        ),
    ),
)

#: The joint (topology, compressor) cell the acceptance bar is gated on.
JOINT_CELL = "adaptive:uniform8+budget"

#: Warm-vs-cold measurement shape.
WARM_N = 64
WARM_PRIOR_ITERATIONS = 300
WARM_RESOLVE_ITERATIONS = 300
WARM_PRUNE_THRESHOLD = 0.0065
WARM_OBJECTIVE_EPS = 1e-6


def run_adaptive_cell(name: str, overrides: dict) -> dict:
    from bench_compression import MAX_ROUNDS, build_workload

    from repro.core.config import SNAPConfig
    from repro.core.trainer import SNAPTrainer

    model, shards, topology, test_set = build_workload()
    config = SNAPConfig(
        engine="vectorized",
        max_rounds=MAX_ROUNDS,
        seed=7,
        adaptive_topology=True,
        **overrides,
    )
    trainer = SNAPTrainer(model, shards, topology, config)
    start = time.perf_counter()
    result = trainer.run(test_set=test_set, stop_on_convergence=False)
    elapsed = time.perf_counter() - start
    adaptive = result.info["adaptive_topology"]
    return {
        "cell": name,
        "scheme": result.scheme,
        "rounds": len(result.rounds),
        "total_bytes": int(trainer.tracker.total_bytes),
        "bytes_per_round": trainer.tracker.total_bytes / len(result.rounds),
        "final_loss": result.rounds[-1].mean_loss,
        "final_accuracy": result.final_accuracy,
        "seconds": elapsed,
        "swaps": adaptive["swaps"],
        "pruned_edges": adaptive["pruned_edges"],
        "solver_steps": adaptive["solver_steps"],
        "final_edges": adaptive["final_edges"],
        "final_compressor": adaptive["final_compressor"],
    }


def dominated_points(cell: dict, baseline_cells: list[dict]) -> list[str]:
    """Fixed-spec frontier points this adaptive cell strictly dominates."""
    return [
        fixed["spec"]
        for fixed in baseline_cells
        if cell["total_bytes"] < fixed["total_bytes"]
        and cell["final_accuracy"] >= fixed["final_accuracy"]
    ]


def warm_clique_topology():
    from repro.topology.graph import Topology

    ring = [(i, (i + 1) % WARM_N) for i in range(WARM_N)]
    clique = [
        (u, v)
        for u, v in itertools.combinations(range(6), 2)
        if v - u > 1  # ring already holds the consecutive pairs
    ]
    return Topology(WARM_N, ring + clique + [(0, WARM_N // 2)])


def measure_warm_vs_cold() -> dict:
    """Subgradient steps to the shared objective, warm vs cold, at N=64."""
    from repro.weights.adaptive import prune_links
    from repro.weights.optimizer import optimize_weight_matrix

    def steps_to(trace, target):
        return next(
            (i + 1 for i, v in enumerate(trace) if v <= target), len(trace)
        )

    topology = warm_clique_topology()
    start = time.perf_counter()
    prior = optimize_weight_matrix(topology, iterations=WARM_PRIOR_ITERATIONS)
    pruned, removed = prune_links(
        topology, prior.matrix, WARM_PRUNE_THRESHOLD
    )
    cold = optimize_weight_matrix(pruned, iterations=WARM_RESOLVE_ITERATIONS)
    warm = optimize_weight_matrix(
        pruned, iterations=WARM_RESOLVE_ITERATIONS, warm_start=prior
    )
    elapsed = time.perf_counter() - start
    best = min(min(cold.objective_trace), min(warm.objective_trace))
    target = best + WARM_OBJECTIVE_EPS
    steps_cold = steps_to(cold.objective_trace, target)
    steps_warm = steps_to(warm.objective_trace, target)
    return {
        "n_nodes": WARM_N,
        "pruned_edges": [list(edge) for edge in removed],
        "prune_threshold": WARM_PRUNE_THRESHOLD,
        "objective_eps": WARM_OBJECTIVE_EPS,
        "best_objective": best,
        "steps_cold": steps_cold,
        "steps_warm": steps_warm,
        "ratio": steps_cold / max(1, steps_warm),
        "rate_score_cold": cold.report.rate_score,
        "rate_score_warm": warm.report.rate_score,
        "seconds": elapsed,
    }


def load_baseline() -> list[dict]:
    if not COMPRESSION_BASELINE.exists():
        raise SystemExit(
            f"missing {COMPRESSION_BASELINE}; run `make bench-compression` first"
        )
    return json.loads(COMPRESSION_BASELINE.read_text())["cells"]


def gate(cells: list[dict], warm: dict) -> list[str]:
    """Acceptance-bar failures (empty = all bars met)."""
    from repro.compression.spec import CompressorSpec

    failures = []
    joint = next(c for c in cells if c["cell"] == JOINT_CELL)
    start = CompressorSpec.parse(dict(ADAPTIVE_CELLS)[JOINT_CELL]["compressor"])
    if joint["final_compressor"] == start.label:
        failures.append(
            f"joint cell never stepped its knob: it ends on its starting "
            f"spec {start.label}"
        )
    if len(joint["dominates"]) < MIN_DOMINATED:
        failures.append(
            f"joint cell dominates only {joint['dominates']} "
            f"(need >= {MIN_DOMINATED} fixed frontier points)"
        )
    if warm["ratio"] < MIN_WARM_RATIO:
        failures.append(
            f"warm-start ratio {warm['ratio']:.1f} < {MIN_WARM_RATIO} "
            f"(cold={warm['steps_cold']}, warm={warm['steps_warm']})"
        )
    return failures


def main(argv=None) -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_topology.json"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-measure the joint cell + warm-start ratio and gate the "
        "acceptance bars (CI smoke; writes nothing)",
    )
    args = parser.parse_args(argv)

    baseline = load_baseline()
    names = (
        (JOINT_CELL,) if args.check else tuple(n for n, _ in ADAPTIVE_CELLS)
    )
    cells = []
    for name, overrides in ADAPTIVE_CELLS:
        if name not in names:
            continue
        cell = run_adaptive_cell(name, overrides)
        cell["dominates"] = dominated_points(cell, baseline)
        cells.append(cell)
        print(
            f"{cell['cell']:<28} bytes={cell['total_bytes']:<9} "
            f"acc={cell['final_accuracy']:.4f} swaps={cell['swaps']} "
            f"pruned={cell['pruned_edges']} dominates={len(cell['dominates'])}"
        )

    warm = measure_warm_vs_cold()
    print(
        f"warm-vs-cold N={warm['n_nodes']}: cold={warm['steps_cold']} "
        f"warm={warm['steps_warm']} steps to best+{warm['objective_eps']:g} "
        f"(ratio {warm['ratio']:.1f}x)"
    )

    failures = gate(cells, warm)
    for failure in failures:
        print(f"[gate] FAIL: {failure}")

    if args.check:
        print("[check] ok" if not failures else "[check] FAILED")
        return 1 if failures else 0

    report = {
        "benchmark": "adaptive_topology",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": "bench_compression (logistic(24), 12 servers, "
        "random_regular(degree=4, seed=3), 120 rounds)",
        "baseline": COMPRESSION_BASELINE.name,
        "cells": cells,
        "warm_vs_cold": warm,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
