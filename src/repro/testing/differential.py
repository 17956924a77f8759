"""Differential runner: reference vs. vectorized engines on generated scenarios.

The strongest correctness oracle the repo has is *engine equivalence*: the
per-object reference implementation and the batched vectorized fast path
must produce bit-for-bit identical runs on every configuration. This module
turns that oracle into a push-button sweep — each generated
:class:`~repro.testing.scenarios.Scenario` is run once per engine with the
invariant monitors armed, and the two :class:`~repro.testing.digest.RunDigest`
fingerprints must be equal with zero violations on either side.

``make verify-invariants`` and ``snap verify`` both drive
:func:`run_suite`; a failing scenario is reproduced from its
``(master_seed, index)`` pair via ``Scenario.from_index``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.trainer import SNAPTrainer
from repro.exceptions import InvariantViolation
from repro.faults.plan import FaultPlan
from repro.testing.digest import RunDigest, capture_run
from repro.testing.scenarios import Scenario, ScenarioGen

#: Engines every scenario must agree across. The semi-synchronous engine
#: joins the equivalence class because generated scenarios leave
#: ``staleness_bound`` at 0 with uniform clocks — its synchronous anchor
#: (see ``docs/ASYNC.md``); run_semisync_smoke covers the τ > 0 regime.
ENGINES = ("reference", "vectorized", "semisync")


@dataclass
class DifferentialReport:
    """Outcome of one scenario's cross-engine comparison."""

    scenario: Scenario
    ok: bool
    detail: str = ""
    digests: dict = field(default_factory=dict)  # engine -> RunDigest
    monitor_checks: dict = field(default_factory=dict)  # engine -> {name: count}

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        line = f"[{status}] {self.scenario.describe()}"
        return line if self.ok else f"{line}\n{self.detail}"


def run_scenario(
    scenario: Scenario, *, invariants: str = "strict", engines=ENGINES
) -> DifferentialReport:
    """Run one scenario on every engine; compare digests and monitors.

    Each engine gets a freshly built trainer (fault models and edge RNG
    streams are stateful). An :class:`InvariantViolation` on any engine
    fails the scenario with a diagnostic naming the invariant and round; a
    digest mismatch against the first engine (the per-object reference
    oracle) fails it with the first diverging trace entry.

    Runs execute on the streaming telemetry path — per-flow record
    retention off, digests folded incrementally per round — so the sweep
    certifies the same pipeline large-N runs use. The streamed hashes are
    byte-identical to the retained-trace recipe (same ``DIGEST_VERSION``),
    so golden pins predating the streaming layer hold unchanged.
    """
    import dataclasses

    digests: dict[str, RunDigest] = {}
    checks: dict[str, dict] = {}
    for engine in engines:
        config = dataclasses.replace(
            scenario.config(engine, invariants=invariants),
            retain_flow_records=False,
        )
        topology = scenario.topology()
        trainer = SNAPTrainer(
            scenario.model(),
            scenario.shards(),
            topology,
            config,
            fault_plan=scenario.fault_plan(),
            weight_matrix=scenario.weight_matrix(topology),
        )
        try:
            digests[engine] = capture_run(trainer, streaming=True)
        except InvariantViolation as violation:
            return DifferentialReport(
                scenario=scenario,
                ok=False,
                detail=(
                    f"{engine} engine violated invariant "
                    f"{violation.invariant!r}: {violation}"
                ),
                digests=digests,
            )
        if trainer.monitor is not None:
            checks[engine] = trainer.monitor.summary()
    oracle = digests[engines[0]]
    for engine in engines[1:]:
        if oracle != digests[engine]:
            return DifferentialReport(
                scenario=scenario,
                ok=False,
                detail=(
                    f"{engines[0]} and {engine} digests differ:\n"
                    + oracle.diff(digests[engine])
                ),
                digests=digests,
                monitor_checks=checks,
            )
    return DifferentialReport(
        scenario=scenario, ok=True, digests=digests, monitor_checks=checks
    )


def run_suite(
    count: int,
    master_seed: int = 0,
    *,
    start: int = 0,
    invariants: str = "strict",
    fail_fast: bool = False,
    progress=None,
) -> list[DifferentialReport]:
    """Differentially test ``count`` scenarios of the ``master_seed`` stream.

    ``progress`` (if given) is called with each finished
    :class:`DifferentialReport` — the CLI uses it for live per-scenario
    lines. With ``fail_fast`` the sweep stops at the first failure.
    """
    reports = []
    for scenario in ScenarioGen(master_seed).scenarios(count, start=start):
        report = run_scenario(scenario, invariants=invariants)
        reports.append(report)
        if progress is not None:
            progress(report)
        if fail_fast and not report.ok:
            break
    return reports


def run_workload_suite(
    master_seed: int = 0,
    *,
    invariants: str = "strict",
    fail_fast: bool = False,
    progress=None,
) -> list[DifferentialReport]:
    """Differentially test the curated workload pack (byz/drift/hierarchy).

    Same contract as :func:`run_suite`, over
    :func:`repro.testing.scenarios.workload_scenarios` instead of the
    generated stream: all three engines must agree bit for bit with strict
    monitors armed on every attack/defense, drift, and tiered scenario.
    """
    from repro.testing.scenarios import workload_scenarios

    reports = []
    for scenario in workload_scenarios(master_seed):
        report = run_scenario(scenario, invariants=invariants)
        reports.append(report)
        if progress is not None:
            progress(report)
        if fail_fast and not report.ok:
            break
    return reports


def run_semisync_smoke(
    count: int,
    master_seed: int = 0,
    *,
    taus=(0, 2, 8),
    straggler_factor: float = 10.0,
    progress=None,
) -> list[DifferentialReport]:
    """Chaos sweep of the semi-synchronous engine across staleness regimes.

    Each generated scenario (keeping its own fault plan: GE link bursts,
    Markov node crashes, corruption on the faulty ones) is re-run on the
    ``semisync`` engine with a heterogeneous clock — the highest-numbered
    server slowed by ``straggler_factor`` — once per τ in ``taus``, with
    strict invariant monitors armed. τ = 0 runs without patience (the pure
    synchronous barrier under skewed clocks); τ > 0 runs add a patience so
    the degradation path is exercised. A run passes when no invariant
    trips, the observed progress staleness stays within τ, and the
    trajectory stays finite.
    """
    import dataclasses

    from repro.faults.models import ScheduledStragglers
    from repro.network.timing import LinkTimingModel

    timing = LinkTimingModel(compute_s_per_round=1.0)
    reports = []
    for scenario in ScenarioGen(master_seed).scenarios(count):
        straggler = scenario.n_nodes - 1
        for tau in taus:
            tau = int(tau)
            config = dataclasses.replace(
                scenario.config("semisync", invariants="strict"),
                staleness_bound=tau,
                straggler_patience_s=None if tau == 0 else 4.0,
                timing=timing,
            )
            base = scenario.fault_plan()
            plan = FaultPlan(
                links=base.link_models if base is not None else None,
                nodes=base.node_models if base is not None else None,
                corruption=base.corruption if base is not None else None,
                clocks=ScheduledStragglers({straggler: float(straggler_factor)}),
            )
            topology = scenario.topology()
            trainer = SNAPTrainer(
                scenario.model(),
                scenario.shards(),
                topology,
                config,
                fault_plan=plan,
                weight_matrix=scenario.weight_matrix(topology),
            )
            label = f"tau={tau} straggler={straggler}@{straggler_factor:g}x"
            try:
                result = trainer.run()
            except InvariantViolation as violation:
                report = DifferentialReport(
                    scenario=scenario,
                    ok=False,
                    detail=(
                        f"[{label}] semisync engine violated invariant "
                        f"{violation.invariant!r}: {violation}"
                    ),
                )
            else:
                semi = result.info["semi_sync"]
                problems = []
                if semi["max_progress_staleness"] > tau:
                    problems.append(
                        f"progress staleness {semi['max_progress_staleness']} "
                        f"exceeds tau={tau}"
                    )
                if not all(
                    np.isfinite(record.mean_loss) for record in result.rounds
                ):
                    problems.append("trajectory diverged (non-finite loss)")
                report = DifferentialReport(
                    scenario=scenario,
                    ok=not problems,
                    detail=f"[{label}] " + "; ".join(problems) if problems else "",
                    monitor_checks=(
                        {label: trainer.monitor.summary()}
                        if trainer.monitor is not None
                        else {}
                    ),
                )
            reports.append(report)
            if progress is not None:
                progress(report)
    return reports


def summarize(reports: list[DifferentialReport]) -> str:
    """Human-readable sweep summary (failures first, then the tally)."""
    failures = [report for report in reports if not report.ok]
    lines = [str(report) for report in failures]
    checked = sum(
        sum(engine_checks.values())
        for report in reports
        for engine_checks in report.monitor_checks.values()
    )
    lines.append(
        f"{len(reports) - len(failures)}/{len(reports)} scenarios passed "
        f"({checked} invariant checks across all engines)"
    )
    if failures:
        seeds = ", ".join(
            f"({r.scenario.master_seed}, {r.scenario.index})" for r in failures
        )
        lines.append(
            f"reproduce failures with Scenario.from_index(master_seed, index) "
            f"for: {seeds}"
        )
    return "\n".join(lines)
