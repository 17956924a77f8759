"""Command line of the end-to-end benchmark.

Three ways in:

* ``--workload NAME --seed N --seconds S --trace 0|1`` — the driver's
  contract: measure one workload in this process and print, as the last
  line, one JSON object with ``correct``, ``attempted``, ``failed`` and the
  metrics ``BENCHMARK.json`` declares for that trace mode.
* ``--seed N --out FILE`` — the whole suite: one fresh subprocess per
  workload, one after another, each doing timed reps, traced reps and the
  verify rep; every metric is printed by name and unit and the full result
  (medians, quartiles, n, environment) is written to ``FILE``.
* ``--compare A.json B.json`` / ``--markdown FILE`` — read result files;
  ``--pin`` re-captures ``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
EXPECTED_JSON = HERE / "expected.json"


def load_contract() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    return json.loads(BENCHMARK_JSON.read_text())


def load_pins() -> dict:
    return json.loads(EXPECTED_JSON.read_text()) if EXPECTED_JSON.exists() else {}


def contract_line(doc: dict, contract: dict, trace: bool) -> dict:
    """The driver's result object for one workload invocation.

    An end-to-end metric is reported as the *fastest* timed rep's value,
    not the median the suite prints next to it: the reps repeat the same
    deterministic work, so whatever a rep takes beyond the fastest one is
    the shared host interfering, and on the driver's machine that moved
    the median of a window by half between two sets of runs of one commit
    (README, "Bounds"). ``bytes_total`` is the same in every rep and
    ``peak_rss_mb`` has one sample, so for them the two coincide.

    A per-layer metric whose layer did not run in this workload is ``null``
    in the result file and ``0`` here: the driver's line carries numbers.
    """
    declared = contract["per_layer" if trace else "end_to_end"]
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if trace:
            value = doc["per_layer"][name]
        else:
            value = doc["end_to_end"][name]["min"]
        metrics[name] = {
            "value": 0 if value is None else value,
            "unit": spec["unit"],
        }
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }


def print_workload(doc: dict, contract: dict) -> None:
    """Every metric of one workload, by name and unit."""
    from .report import units_of

    units = units_of(contract)
    print(f"== {doc['workload']}  seed={doc['seed']}  rounds={doc['rounds']}  "
          f"target={doc['target']} (met at round {doc['round_to_target']})")
    for name, summary in doc["end_to_end"].items():
        print(
            f"  {name:<34} {summary['median']:>16.6g} {units.get(name, ''):<10}"
            f" min={summary['min']:.6g} q1={summary['q1']:.6g}"
            f" q3={summary['q3']:.6g} n={summary['n']}"
        )
    for name in sorted(doc["per_layer"]):
        value = doc["per_layer"][name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>16} {units.get(name, ''):<10}")
    for error in doc["errors"]:
        print(f"  ERROR: {error}")


def run_single(args) -> int:
    """Measure one workload in this process (pinned unless ``--no-pin``)."""
    from . import harness
    from .workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    contract = load_contract()
    cpu = None if args.no_pin else harness.pin_to_one_cpu()
    # Window split: the driver's --trace 1 spends the whole window on
    # untraced/traced rep pairs; the suite's "both" keeps the full timed
    # window (and a clean ru_maxrss) and adds half a window of pairs.
    trace = args.trace in ("1", "both")
    windows = {"0": (1.0, 0.0), "1": (0.0, 1.0), "both": (1.0, 0.5)}
    timed_share, traced_share = windows[args.trace]
    doc = harness.measure(
        WORKLOADS[args.workload],
        seed=args.seed,
        timed_s=timed_share * args.seconds,
        traced_s=traced_share * args.seconds,
        quick=args.quick,
        # --quick runs a tenth of the rounds: the pins cannot apply.
        pins=None if args.quick else load_pins(),
        keep_spans=args.spans is not None,
    )
    doc["env"] = harness.environment(cpu)
    spans = doc.pop("spans", None)
    if args.spans is not None and spans is not None:
        Path(args.spans).write_text(json.dumps(spans))
    if args.out is not None:
        Path(args.out).write_text(json.dumps(doc, indent=1))
    print_workload(doc, contract)
    if args.trace in ("0", "1"):
        print(json.dumps(contract_line(doc, contract, trace)))
    return 0


def run_suite(args) -> int:
    """Every workload, one fresh pinned subprocess each, one after another."""
    from .workloads import WORKLOADS

    out_path = Path(args.out)
    results, env = {}, None
    for name in WORKLOADS:
        part = out_path.with_name(f"{out_path.stem}.{name}.part.json")
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--out", str(part),
            # A smoke run needs no separate timed window: one untraced/traced
            # pair (the untraced half is the timed rep) and the verify rep.
            "--trace", "1" if args.quick else "both",
        ]
        if args.quick:
            command.append("--quick")
        if args.no_pin:
            command.append("--no-pin")
        completed = subprocess.run(command)
        if completed.returncode != 0 or not part.exists():
            print(f"workload {name} failed (exit {completed.returncode})",
                  file=sys.stderr)
            return 1
        doc = json.loads(part.read_text())
        part.unlink()
        env = doc.pop("env")
        results[name] = doc
    suite = {"seed": args.seed, "quick": args.quick, "env": env, "workloads": results}
    out_path.write_text(json.dumps(suite, indent=1))
    failed = [name for name, doc in results.items() if not doc["correct"]]
    print(f"wrote {out_path}" + (f"; FAILED verification: {failed}" if failed else ""))
    return 1 if failed else 0


def write_pins() -> int:
    """Re-capture ``expected.json`` from one pinned-seed rep per workload."""
    from . import harness
    from .workloads import PINNED_SEED, WORKLOADS, first_round_meeting

    pins = {}
    for name, workload in WORKLOADS.items():
        rep = harness.run_rep(workload.generate(PINNED_SEED), workload.rounds)
        pins[name] = {
            "digest": rep.digest,
            "bytes_total": rep.bytes_total,
            "final_loss": rep.final_loss.hex(),
            "round_to_target": first_round_meeting(workload.target, rep.losses),
        }
    EXPECTED_JSON.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {EXPECTED_JSON}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", help="measure this one workload in-process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="measurement window per workload")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: end-to-end metrics; 1: per-layer metrics; "
                             "both: the suite's per-workload protocol")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--spans", help="write the last traced rep's spans here")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1 rep of each kind, a tenth of the rounds")
    parser.add_argument("--no-pin", action="store_true",
                        help="do not pin the process to one CPU")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--markdown", metavar="RESULT.json")
    parser.add_argument("--pin", action="store_true",
                        help="re-capture expected.json (after an intended "
                             "behaviour change)")
    args = parser.parse_args(argv)

    if args.compare:
        from .report import compare

        return compare(*args.compare, load_contract())
    if args.markdown:
        from .report import markdown

        print(markdown(json.loads(Path(args.markdown).read_text()), load_contract()))
        return 0
    if args.pin:
        return write_pins()
    if args.workload:
        return run_single(args)
    if args.out:
        return run_suite(args)
    parser.error("give --workload, --out, --compare, --markdown or --pin")
    return 2
