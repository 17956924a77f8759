"""Command-line interface for running SNAP experiments.

Subcommands::

    python -m repro run         --scheme snap --workload credit --n-servers 20
    python -m repro compare     --schemes snap,snap0,ps --workload credit
    python -m repro plan        --n-servers 12 --threshold 0.02
    python -m repro orchestrate --slots 6 --devices 5 --join-at 7 --leave-at 12

``run`` trains one scheme and optionally writes the full result as JSON;
``compare`` races several schemes on the same workload and prints a summary
table; ``plan`` performs the Section IV-D neighbor-set planning and prints
the pruned topology; ``orchestrate`` brings up the fleet control plane and
runs an elastic-membership testbed fleet against it (see
docs/ORCHESTRATOR.md); ``verify`` sweeps differential/invariant scenarios.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.reporting import ascii_table, format_bytes
from repro.compression.spec import SCHEME_PRESETS
from repro.core.config import SNAPConfig, StragglerStrategy
from repro.faults.plan import FaultPlan
from repro.results import TrainingResult
from repro.simulation.experiments import (
    Workload,
    credit_svm_workload,
    mnist_mlp_workload,
)
from repro.simulation.runner import SCHEMES, reference_target_loss, run_scheme
from repro.topology.failures import IndependentLinkFailures, IndependentNodeFailures
from repro.weights.planning import plan_neighbor_sets

#: Exit code for bad arguments (argparse uses 2; we reuse it for semantic errors).
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SNAP (ICDCS 2020) reproduction — decentralized edge ML",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="train one scheme on a workload")
    _add_workload_arguments(run)
    run.add_argument(
        "--scheme", choices=SCHEMES, default="snap", help="training scheme"
    )
    run.add_argument(
        "--failure-rate",
        type=float,
        default=0.0,
        help="per-round link failure probability (Fig. 9 stragglers)",
    )
    run.add_argument(
        "--node-failure-rate",
        type=float,
        default=0.0,
        help="per-round server outage probability (Section IV-D 'server shut down')",
    )
    run.add_argument(
        "--straggler-strategy",
        choices=[strategy.value for strategy in StragglerStrategy],
        default=StragglerStrategy.STALE.value,
        help="how missing neighbor updates are handled",
    )
    run.add_argument(
        "--compressor",
        type=str,
        default=None,
        help="update compressor spec replacing SNAP's APE selection, e.g. "
        "'topk:k=32', 'uniform:bits=4', 'terngrad' (--scheme snap only)",
    )
    run.add_argument(
        "--compressor-arg",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="override one compressor parameter (repeatable), "
        "e.g. --compressor-arg k=64",
    )
    run.add_argument(
        "--adaptive-topology",
        action="store_true",
        help="arm the online topology controller: prune near-zero-weight "
        "links and re-solve (22)/(23) warm-started at round boundaries "
        "(requires optimized weights; mesh schemes only)",
    )
    run.add_argument(
        "--reoptimize-every",
        type=int,
        default=25,
        help="round period of the adaptive prune/re-optimize cycle",
    )
    run.add_argument(
        "--prune-threshold",
        type=float,
        default=0.02,
        help="links with optimized weight below this are pruned (connectivity-guarded)",
    )
    run.add_argument(
        "--bytes-budget",
        type=int,
        default=None,
        help="total-bytes target for the joint (topology, compressor) "
        "controller; steps the compressor's byte knob when the projected "
        "spend overshoots",
    )
    run.add_argument(
        "--output", type=str, default=None, help="write the result JSON here"
    )

    compare = subparsers.add_parser(
        "compare", help="race several schemes on one workload"
    )
    _add_workload_arguments(compare)
    compare.add_argument(
        "--schemes",
        type=str,
        default="centralized,snap,snap0",
        help="comma-separated scheme list",
    )
    compare.add_argument(
        "--target-margin",
        type=float,
        default=0.02,
        help="convergence target: loss within this fraction of the "
        "centralized optimum",
    )

    plan = subparsers.add_parser(
        "plan", help="Section IV-D neighbor-set planning"
    )
    plan.add_argument("--n-servers", type=int, default=12)
    plan.add_argument("--threshold", type=float, default=0.02)
    plan.add_argument("--iterations", type=int, default=150)

    orchestrate = subparsers.add_parser(
        "orchestrate",
        help="run an orchestrated elastic fleet over the TCP testbed",
    )
    orchestrate.add_argument(
        "--port",
        type=int,
        default=0,
        help="orchestrator HTTP port (0 = ephemeral, published after bind)",
    )
    orchestrate.add_argument(
        "--heartbeat-s",
        type=float,
        default=0.25,
        help="device heartbeat period in seconds",
    )
    orchestrate.add_argument(
        "--evict-after-misses",
        type=int,
        default=3,
        help="consecutive missed heartbeats before fleet-level eviction",
    )
    orchestrate.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="number of concurrent jobs sharing the fleet (tenancy)",
    )
    orchestrate.add_argument(
        "--slots", type=int, default=6, help="slot-universe capacity"
    )
    orchestrate.add_argument(
        "--devices", type=int, default=5, help="devices registered at bring-up"
    )
    orchestrate.add_argument("--rounds", type=int, default=30)
    orchestrate.add_argument(
        "--join-at",
        type=int,
        default=None,
        help="round at which one extra device joins over the HTTP API",
    )
    orchestrate.add_argument(
        "--leave-at",
        type=int,
        default=None,
        help="round at which one device leaves over the HTTP API",
    )
    orchestrate.add_argument(
        "--bytes-budget",
        type=int,
        default=None,
        help="per-job payload-byte budget; the job stops when it is spent",
    )
    orchestrate.add_argument("--seed", type=int, default=0)
    orchestrate.add_argument("--n-train", type=int, default=900)
    orchestrate.add_argument("--n-test", type=int, default=450)
    orchestrate.add_argument(
        "--no-heartbeats",
        action="store_true",
        help="skip the background heartbeat senders and monitor sweeper",
    )
    orchestrate.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the static-fleet baseline accuracy run",
    )

    verify = subparsers.add_parser(
        "verify",
        help="differential + invariant verification over generated scenarios",
    )
    verify.add_argument(
        "--scenarios",
        type=int,
        default=25,
        help="number of generated scenarios to sweep",
    )
    verify.add_argument(
        "--master-seed",
        type=int,
        default=0,
        help="seed of the scenario stream (a failure reproduces from "
        "(master-seed, index))",
    )
    verify.add_argument(
        "--start", type=int, default=0, help="first scenario index to run"
    )
    verify.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop the sweep at the first failing scenario",
    )
    verify.add_argument(
        "--skip-selftest",
        action="store_true",
        help="skip the deliberate fault injections that prove the monitors fire",
    )
    verify.add_argument(
        "--semi-sync-smoke",
        type=int,
        default=0,
        metavar="N",
        help="additionally chaos-sweep N scenarios on the semi-synchronous "
        "engine across staleness bounds tau in {0, 2, 8} with a 10x "
        "straggler clock (strict invariants)",
    )
    verify.add_argument(
        "--skip-workloads",
        action="store_true",
        help="skip the curated byzantine/drift/hierarchy workload pack",
    )

    return parser


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        choices=("credit", "mnist"),
        default="credit",
        help="credit = 24-feature SVM simulation; mnist = 784-30-10 MLP testbed",
    )
    parser.add_argument("--n-servers", type=int, default=16)
    parser.add_argument("--degree", type=float, default=3.0)
    parser.add_argument("--n-train", type=int, default=3_000)
    parser.add_argument("--n-test", type=int, default=750)
    parser.add_argument("--rounds", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alpha", type=float, default=None, help="step size")
    parser.add_argument(
        "--no-optimize-weights",
        action="store_true",
        help="use the eq. (24) Metropolis weights instead of the optimized ones",
    )


def _build_workload(args: argparse.Namespace) -> Workload:
    if args.workload == "credit":
        return credit_svm_workload(
            n_servers=args.n_servers,
            average_degree=args.degree,
            n_train=args.n_train,
            n_test=args.n_test,
            seed=args.seed,
        )
    return mnist_mlp_workload(
        n_servers=args.n_servers,
        n_train=args.n_train,
        n_test=args.n_test,
        seed=args.seed,
    )


def _parse_compressor(args: argparse.Namespace):
    """Resolve --compressor/--compressor-arg into a spec, or None."""
    from repro.compression import CompressorSpec
    from repro.exceptions import ConfigurationError

    if args.compressor is None:
        if args.compressor_arg:
            print(
                "--compressor-arg requires --compressor", file=sys.stderr
            )
            raise SystemExit(EXIT_USAGE)
        return None
    if args.scheme != "snap":
        print(
            f"--compressor replaces SNAP's APE selection, so it runs only "
            f"with --scheme snap, not {args.scheme!r}",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_USAGE)
    try:
        spec = CompressorSpec.parse(args.compressor)
        for override in args.compressor_arg or ():
            key, separator, value = override.partition("=")
            if not separator or not key:
                raise ConfigurationError(
                    f"--compressor-arg expects KEY=VALUE, got {override!r}"
                )
            spec = spec.with_param(key, value)
    except ConfigurationError as error:
        print(str(error), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if spec.is_preset:
        print(
            f"--compressor {spec.label} is a preset scheme: choose it with "
            f"--scheme ({', '.join(SCHEME_PRESETS)})",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_USAGE)
    return spec


def _command_run(args: argparse.Namespace) -> int:
    from repro.exceptions import ConfigurationError

    compressor = _parse_compressor(args)
    if args.adaptive_topology and args.scheme not in SCHEME_PRESETS:
        print(
            f"--adaptive-topology only applies to the mesh schemes "
            f"({', '.join(SCHEME_PRESETS)}), not {args.scheme!r}",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_USAGE)
    try:
        config = SNAPConfig(
            straggler_strategy=StragglerStrategy(args.straggler_strategy),
            max_rounds=args.rounds,
            compressor=compressor or "ape",
            optimize_weights=not args.no_optimize_weights,
            adaptive_topology=args.adaptive_topology,
            topology_reoptimize_every=args.reoptimize_every,
            topology_prune_threshold=args.prune_threshold,
            bytes_budget=args.bytes_budget,
        )
    except ConfigurationError as error:
        print(str(error), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    workload = _build_workload(args)
    fault_plan = FaultPlan(
        links=(
            IndependentLinkFailures(args.failure_rate, seed=args.seed)
            if args.failure_rate > 0
            else None
        ),
        nodes=(
            IndependentNodeFailures(args.node_failure_rate, seed=args.seed)
            if args.node_failure_rate > 0
            else None
        ),
    )
    result = run_scheme(
        args.scheme,
        workload,
        max_rounds=args.rounds,
        alpha=args.alpha,
        fault_plan=fault_plan,
        snap_config=config if args.scheme in SCHEME_PRESETS else None,
    )
    _print_result(result)
    if args.output:
        path = result.save(args.output)
        print(f"result written to {path}")
    return 0


def _print_result(result: TrainingResult) -> None:
    summary = result.summary()
    rows = [
        ["scheme", summary["scheme"]],
        ["rounds run", summary["rounds"]],
        ["converged at", summary["converged_at"]],
        ["final loss", summary["final_loss"]],
        ["final accuracy", summary["final_accuracy"]],
        ["total traffic", format_bytes(summary["total_bytes"])],
        ["total hop-weighted cost", format_bytes(summary["total_cost"])],
    ]
    adaptive = result.info.get("adaptive_topology")
    if adaptive is not None:
        rows.append(
            [
                "topology swaps",
                f"{adaptive['swaps']} ({adaptive['pruned_edges']} links "
                f"pruned, {adaptive['solver_steps']} solver steps)",
            ]
        )
    print(ascii_table(["metric", "value"], rows))


def _command_compare(args: argparse.Namespace) -> int:
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        print(
            f"unknown scheme(s): {', '.join(unknown)}; choose from {', '.join(SCHEMES)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    workload = _build_workload(args)
    target = reference_target_loss(workload, margin=args.target_margin)
    rows = []
    for scheme in schemes:
        result = run_scheme(
            scheme,
            workload,
            max_rounds=args.rounds,
            alpha=args.alpha,
            optimize_weights=not args.no_optimize_weights,
            detector_kwargs={"target_loss": target},
        )
        summary = result.summary()
        rows.append(
            [
                scheme,
                summary["iterations_to_converge"],
                "yes" if summary["converged_at"] is not None else "no",
                f"{summary['final_accuracy']:.4f}",
                format_bytes(summary["total_bytes"]),
                format_bytes(summary["total_cost"]),
            ]
        )
    print(f"workload: {workload.name}   target loss: {target:.5f}")
    print(
        ascii_table(
            ["scheme", "iterations", "converged", "accuracy", "traffic", "cost"],
            rows,
        )
    )
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    plan = plan_neighbor_sets(
        args.n_servers,
        weight_threshold=args.threshold,
        iterations=args.iterations,
    )
    print(
        f"kept {plan.kept_edges} links "
        f"(average degree {plan.topology.average_degree():.2f}); "
        f"rate score {plan.report.rate_score:.4f} "
        f"(dense optimum: {plan.dense_report.rate_score:.4f})"
    )
    rows = [
        [node, " ".join(str(n) for n in plan.topology.neighbors(node))]
        for node in plan.topology
    ]
    print(ascii_table(["server", "neighbors"], rows))
    return 0


def _command_orchestrate(args: argparse.Namespace) -> int:
    # Local import: the orchestrator pulls in the testbed + trainer stack.
    from repro.orchestrator import run_elastic_fleet

    if not 0 < args.devices <= args.slots:
        print(
            f"--devices must be in (0, --slots={args.slots}], got {args.devices}",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_USAGE)
    report = run_elastic_fleet(
        n_slots=args.slots,
        initial_devices=args.devices,
        rounds=args.rounds,
        join_at=args.join_at,
        leave_at=args.leave_at,
        heartbeat_s=args.heartbeat_s,
        evict_after_misses=args.evict_after_misses,
        bytes_budget=args.bytes_budget,
        seed=args.seed,
        n_train=args.n_train,
        n_test=args.n_test,
        heartbeats=not args.no_heartbeats,
        static_baseline=not args.no_baseline,
        n_jobs=args.jobs,
        port=args.port,
    )
    for line in report.summary_lines():
        print(line)
    if report.static_accuracy is not None:
        gap = abs(report.final_accuracy - report.static_accuracy)
        print(f"  accuracy gap vs static fleet: {gap:.4f}")
    return 0


def _command_verify(args: argparse.Namespace) -> int:
    # Local import: repro.testing pulls in the trainer stack, which the
    # lighter subcommands should not pay for.
    from repro.testing import (
        run_selftest,
        run_semisync_smoke,
        run_suite,
        run_workload_suite,
        summarize,
    )

    reports = run_suite(
        args.scenarios,
        master_seed=args.master_seed,
        start=args.start,
        fail_fast=args.fail_fast,
        progress=lambda report: print(
            f"[{'ok' if report.ok else 'FAIL'}] {report.scenario.describe()}"
        ),
    )
    print(summarize(reports))
    failed = any(not report.ok for report in reports)
    if args.semi_sync_smoke > 0:
        print("semi-sync chaos smoke (tau in {0, 2, 8}, 10x straggler):")
        smoke = run_semisync_smoke(
            args.semi_sync_smoke,
            master_seed=args.master_seed,
            progress=lambda report: print(
                f"[{'ok' if report.ok else 'FAIL'}] "
                f"{report.scenario.describe()} {report.detail}".rstrip()
            ),
        )
        print(summarize(smoke))
        failed = failed or any(not report.ok for report in smoke)
    if not args.skip_workloads:
        print("workload pack (byzantine / drifting / hierarchical):")
        workloads = run_workload_suite(
            master_seed=args.master_seed,
            fail_fast=args.fail_fast,
            progress=lambda report: print(
                f"[{'ok' if report.ok else 'FAIL'}] {report.scenario.describe()}"
            ),
        )
        print(summarize(workloads))
        failed = failed or any(not report.ok for report in workloads)
    if not args.skip_selftest:
        print("monitor self-test (deliberate fault injections):")
        for outcome in run_selftest(args.master_seed):
            print(f"  {outcome}")
            failed = failed or not outcome.caught
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "plan":
        return _command_plan(args)
    if args.command == "orchestrate":
        return _command_orchestrate(args)
    if args.command == "verify":
        return _command_verify(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
