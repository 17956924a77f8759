"""Reading result files: ``--compare`` and ``--markdown``.

Both work on the suite files ``--out`` writes, so no number in any table
is hand-written. Bounds come from ``BENCHMARK.json``; the deterministic
metrics and the two end-to-end metrics the driver does not bound (see the
README: they are not steady *across* seeds) get their same-seed bounds
here, because ``--compare`` always compares two runs of one seed.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Same-seed bounds for what BENCHMARK.json bounds loosely or not at all.
#: ``bytes_total`` and ``final_loss`` are functions of the seeded
#: trajectory: a pure speed change must not move them at all.
SAME_SEED_BOUNDS = {
    "bytes_total": 0.001,
    "final_loss": 1e-6,
    "failure_share": 0.0,
}

#: ``time_to_target_s`` inherits the bound of the loop it is a prefix of.
INHERITED_BOUNDS = {"time_to_target_s": "run_s"}

SUITE_UNITS = {
    "time_to_target_s": "s",
    "final_loss": "loss",
    "failure_share": "ratio",
}


def units_of(contract: dict) -> dict[str, str]:
    """metric name -> unit, for everything the harness prints."""
    units = dict(SUITE_UNITS)
    for section in ("end_to_end", "per_layer"):
        for spec in contract[section]:
            units[spec["name"]] = spec["unit"]
    return units


def bounds_of(contract: dict) -> dict[str, float]:
    bounds = {spec["name"]: spec["bound"] for spec in contract["end_to_end"]}
    bounds.update(SAME_SEED_BOUNDS)
    for name, source in INHERITED_BOUNDS.items():
        bounds[name] = bounds[source]
    return bounds


def _spread(summary: dict) -> float:
    if not summary["median"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def verdict(before: dict, after: dict, bound: float) -> tuple[str, float | None]:
    """``ok`` / ``regressed`` / ``unresolved`` for one lower-is-better metric.

    Where either run's quartile spread is wider than the bound, the two
    medians cannot be told apart at that bound: the verdict is
    ``unresolved`` unless every sample of ``after`` reads better than every
    sample of ``before``.
    """
    a, b = before["median"], after["median"]
    ratio = b / a if a else None
    if max(_spread(before), _spread(after)) > bound:
        if max(after["values"]) < min(before["values"]):
            return "ok", ratio
        return "unresolved", ratio
    if a == 0:
        return ("regressed" if b > 0 else "ok"), ratio
    return ("regressed" if ratio > 1.0 + bound else "ok"), ratio


def compare(path_a: str, path_b: str, contract: dict) -> int:
    """One row per workload x end-to-end metric; non-zero exit on regression."""
    suite_a = json.loads(Path(path_a).read_text())
    suite_b = json.loads(Path(path_b).read_text())
    bounds = bounds_of(contract)
    units = units_of(contract)
    print(f"A = {path_a} (seed {suite_a['seed']})   B = {path_b} (seed {suite_b['seed']})")
    header = (
        f"{'workload':<24} {'metric':<18} {'unit':<6} {'A median [q1, q3] n':<42} "
        f"{'B median [q1, q3] n':<42} {'B/A':>8} {'bound':>7}  verdict"
    )
    print(header)
    regressed = 0
    for name, doc_a in suite_a["workloads"].items():
        doc_b = suite_b["workloads"].get(name)
        if doc_b is None:
            print(f"{name:<24} missing from B")
            regressed += 1
            continue
        for metric, before in doc_a["end_to_end"].items():
            after = doc_b["end_to_end"][metric]
            outcome, ratio = verdict(before, after, bounds[metric])
            regressed += outcome == "regressed"
            print(
                f"{name:<24} {metric:<18} {units[metric]:<6} "
                f"{_cell(before):<42} {_cell(after):<42} "
                f"{'-' if ratio is None else f'{ratio:.4f}':>8} "
                f"{bounds[metric]:>7g}  {outcome}"
            )
    return 1 if regressed else 0


def _cell(summary: dict) -> str:
    return (
        f"{summary['median']:.6g} [{summary['q1']:.6g}, {summary['q3']:.6g}] "
        f"n={summary['n']}"
    )


def markdown(suite: dict, contract: dict) -> str:
    """The results tables, rendered from a suite file."""
    units = units_of(contract)
    env = suite["env"]
    lines = [
        f"Seed {suite['seed']}; python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}; {env['nproc']} CPUs, pinned to CPU {env['cpu']}.",
        "",
        "### End to end (median [q1, q3], n timed reps)",
        "",
    ]
    workloads = suite["workloads"]
    metrics = list(next(iter(workloads.values()))["end_to_end"])
    lines.append("| workload | " + " | ".join(f"{m} ({units[m]})" for m in metrics) + " |")
    lines.append("|---|" + "---|" * len(metrics))
    for name, doc in workloads.items():
        cells = [_cell(doc["end_to_end"][m]) for m in metrics]
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    lines += ["", "### Per layer (median of the traced reps; – where the layer does not run)", ""]
    lines.append("| metric | unit | " + " | ".join(f"`{n}`" for n in workloads) + " |")
    lines.append("|---|---|" + "---|" * len(workloads))
    layer_names = sorted({m for doc in workloads.values() for m in doc["per_layer"]})
    for metric in layer_names:
        cells = []
        for doc in workloads.values():
            value = doc["per_layer"].get(metric)
            cells.append("–" if value is None else f"{value:.4g}")
        lines.append(f"| `{metric}` | {units.get(metric, '')} | " + " | ".join(cells) + " |")
    return "\n".join(lines)
