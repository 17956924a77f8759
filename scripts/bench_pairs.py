#!/usr/bin/env python3
"""Alternating base/head pairs of the end-to-end benchmark, as one command.

``make bench-pairs BASE=<git-ref> WORKLOAD=<name>[,<name>...] [PAIRS=10]``
(or ``WORKLOAD=all``, every workload ``BENCHMARK.json`` lists) — the
procedure every perf PR runs before it claims (or disclaims) a gain:

1. export both sides into one temporary directory, gone afterwards: ``BASE``
   with ``git archive`` (the committed files, nothing registered in
   ``.git``), *head* as a copy of this working tree's tracked and untracked,
   unignored files as they are on disk. Head is copied rather than run in
   place because the place matters: on the sandbox host the same commit
   reads ~3 % slower from the repository than from a fresh export;
2. run the benchmark's command — ``benchmarks/e2e/run.py --workload W --seed S
   --seconds T --trace 0`` — once per side per workload per pair, base
   first in even pairs and head first in odd ones, each side from its own
   export with its own copy of the harness;
3. print every run, then per workload and per end-to-end metric of
   ``BENCHMARK.json`` the two medians with quartiles, the change, how many
   pairs head won, and a verdict by the rule of the ``choosing-metrics``
   guide — ``improved`` needs nine pairs in ten and a median gap wider than
   base's own interquartile range; ``regressed`` is a median worse by more
   than the metric's bound; a base spread wider than the bound reads
   ``unresolved``.

The last blocks of stdout are one markdown table per workload, for
``docs/perf-log/PR-NN.md``. Reads ``BENCHMARK.json`` (workloads, metric
names, bounds, window); writes nothing. Exits 1 if any workload regressed
or any run was not ``correct``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, command: list[str], arguments: list[str]) -> dict:
    """One benchmark process in ``checkout``; its last stdout line, parsed."""
    done = subprocess.run(
        command + arguments, cwd=checkout, capture_output=True, text=True
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"benchmark failed in {checkout} (exit {done.returncode}):\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def shown(value: float) -> str:
    """Counts (bytes) in full, measurements to six significant digits."""
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def verdict(base: list[float], head: list[float], lower_is_better: bool, bound: float):
    """``(head wins, ties, verdict)`` for one metric over the pairs run."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * h < sign * b for b, h in zip(base, head))
    ties = sum(h == b for b, h in zip(base, head))
    base_low, base_median, base_high = quartiles(base)
    head_median = quartiles(head)[1]
    if ties == len(base):
        return wins, ties, "identical"
    gain = sign * (base_median - head_median)
    spread = base_high - base_low
    scale = abs(base_median) or 1.0
    if wins >= 0.9 * len(base) and gain > spread:
        return wins, ties, "improved"
    if -gain > bound * scale:
        return wins, ties, "regressed"
    separated = max(sign * h for h in head) < min(sign * b for b in base)
    if spread > bound * scale and not separated:
        return wins, ties, "unresolved"
    return wins, ties, "within bound"


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the parent side")
    parser.add_argument(
        "--workload", required=True,
        help="a workload, a comma-separated list, or 'all' (BENCHMARK.json's)",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"]),
        help="measurement window per run (default: BENCHMARK.json run_seconds)",
    )
    options = parser.parse_args()
    if options.pairs < 1:
        parser.error("--pairs must be >= 1")
    if options.workload == "all":
        workloads = [entry["name"] for entry in benchmark["workloads"]]
    else:
        workloads = list(dict.fromkeys(filter(None, options.workload.split(","))))
    if not workloads:
        parser.error("--workload names no workload")

    def git(*arguments: str) -> str:
        return subprocess.run(
            ["git", *arguments], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.strip()

    base_commit = git("rev-parse", "--short", f"{options.base}^{{commit}}")
    head_label = git("rev-parse", "--short", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        head_label += "+uncommitted"
    window = [
        "--seed", str(options.seed), "--seconds", f"{options.seconds:g}",
        "--trace", "0",
    ]
    metrics = benchmark["end_to_end"]
    runs = {workload: {"base": [], "head": []} for workload in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        archive = Path(scratch) / "base.tar"
        git("archive", "--output", str(archive), base_commit)
        base_checkout = Path(scratch) / "base"
        with tarfile.open(archive) as tar:
            tar.extractall(base_checkout, filter="data")
        head_checkout = Path(scratch) / "head"
        listed = git("ls-files", "--cached", "--others", "--exclude-standard", "-z")
        for name in filter(None, listed.split("\0")):
            if (ROOT / name).is_file():  # tracked but deleted on disk: skip
                (head_checkout / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, head_checkout / name)
        checkouts = {"base": base_checkout, "head": head_checkout}
        print(
            f"# {', '.join(workloads)}: base {base_commit} vs head {head_label}, "
            f"{options.pairs} pairs, "
            f"`{' '.join(benchmark['command'] + ['--workload', 'W', *window])}`"
        )
        for index in range(options.pairs):
            order = ("base", "head") if index % 2 == 0 else ("head", "base")
            for workload in workloads:
                for side in order:
                    result = run_once(
                        checkouts[side],
                        benchmark["command"],
                        ["--workload", workload, *window],
                    )
                    runs[workload][side].append(result)
                    values = "  ".join(
                        f"{m['name']}={shown(result['metrics'][m['name']]['value'])}"
                        for m in metrics
                    )
                    print(
                        f"pair {index} {workload} {side}: {values}  "
                        f"correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}",
                        flush=True,
                    )

    if options.pairs < 10:
        print("\nfewer than ten pairs: the verdicts are indicative, not a claim")
    bad = False
    for workload in workloads:
        bad |= report(workload, runs[workload], metrics, base_commit, head_label)
    return int(bad)


def report(workload: str, runs, metrics, base_commit: str, head_label: str) -> bool:
    """Print one workload's markdown table; whether it regressed or erred."""
    pairs = len(runs["base"])
    print(
        f"\n| metric ({workload}) | base `{base_commit}` median [q1, q3] | "
        f"head `{head_label}` median [q1, q3] | change | head wins | bound | verdict |"
    )
    print("|---|---|---|---|---|---|---|")
    bad = False
    for metric in metrics:
        name = metric["name"]
        base = [run["metrics"][name]["value"] for run in runs["base"]]
        head = [run["metrics"][name]["value"] for run in runs["head"]]
        wins, ties, outcome = verdict(
            base, head, metric["better"] == "lower", metric["bound"]
        )
        b_low, b_mid, b_high = quartiles(base)
        h_low, h_mid, h_high = quartiles(head)
        change = 100.0 * (h_mid / b_mid - 1.0) if b_mid else 0.0
        print(
            f"| `{name}` ({metric['unit']}) | "
            f"{shown(b_mid)} [{shown(b_low)}, {shown(b_high)}] | "
            f"{shown(h_mid)} [{shown(h_low)}, {shown(h_high)}] | {change:+.1f} % | "
            f"{wins} of {pairs - ties} | {metric['bound']:.0%} | {outcome} |"
        )
        bad = bad or outcome == "regressed"
    for side in ("base", "head"):
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        correct = sum(bool(run["correct"]) for run in runs[side])
        print(
            f"\n{side}: {correct} of {pairs} invocations `correct: true`, "
            f"{failed} of {attempted} operations failed",
            end="",
        )
        bad = bad or correct != pairs
    print()
    return bad


if __name__ == "__main__":
    sys.exit(main())
