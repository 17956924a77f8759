"""Fig. 9 — impact of stragglers (unavailable links) on SNAP's convergence.

The paper fails a fraction of links per iteration; affected servers reuse
the latest received parameters. Readings: 1% of links down has no impact,
and even at 5% only ~11.8% more iterations are needed.

Stale neighbor values leave a small residual loss floor (they leak mass out
of the doubly stochastic mixing — see DESIGN.md), so the convergence target
here carries an 8% margin: wide enough to sit above the 5%-failure noise
floor, tight enough that the slowdown ordering is still measured. The bench
also reports the REWEIGHT straggler ablation, which removes the floor
entirely by folding failed links' weights onto the diagonal.
"""

from benchmarks.conftest import pick
from repro.core.config import SNAPConfig, StragglerStrategy
from repro.faults import FaultPlan
from repro.simulation.experiments import credit_svm_workload
from repro.simulation.runner import reference_target_loss, run_scheme
from repro.topology.failures import IndependentLinkFailures

FAILURE_RATES = (0.0, 0.01, 0.02, 0.05)


def run_straggler_study():
    workload = credit_svm_workload(
        n_servers=pick(20, 60),
        average_degree=3.0,
        n_train=pick(3_000, 24_000),
        n_test=pick(600, 6_000),
        seed=9,
    )
    target = reference_target_loss(workload, margin=0.08)
    outcomes = {}
    for strategy in (StragglerStrategy.STALE, StragglerStrategy.REWEIGHT):
        for rate in FAILURE_RATES:
            fault_plan = FaultPlan(
                links=IndependentLinkFailures(rate, seed=13) if rate > 0 else None
            )
            config = SNAPConfig(straggler_strategy=strategy, max_rounds=600)
            result = run_scheme(
                "snap",
                workload,
                max_rounds=pick(600, 900),
                fault_plan=fault_plan,
                snap_config=config,
                detector_kwargs={"target_loss": target},
            )
            outcomes[(strategy, rate)] = result
    return outcomes


def test_fig9_stragglers(benchmark, report):
    outcomes = benchmark.pedantic(run_straggler_study, rounds=1, iterations=1)

    table = []
    for strategy in (StragglerStrategy.STALE, StragglerStrategy.REWEIGHT):
        base = outcomes[(strategy, 0.0)].iterations_to_converge
        for rate in FAILURE_RATES:
            result = outcomes[(strategy, rate)]
            iters = result.iterations_to_converge
            table.append(
                [
                    strategy.value,
                    f"{rate:.0%}",
                    iters,
                    result.converged_at is not None,
                    f"{(iters / base - 1) * 100:+.1f}%",
                ]
            )
    report(
        "Fig 9: iterations to converge vs unavailable-link fraction",
        ["strategy", "failure rate", "iterations", "converged", "vs 0%"],
        table,
        claim="1% of links down: no impact; 5%: ~11.8% more iterations",
    )

    stale = {rate: outcomes[(StragglerStrategy.STALE, rate)] for rate in FAILURE_RATES}
    # 1% failures barely matter.
    assert (
        stale[0.01].iterations_to_converge
        <= stale[0.0].iterations_to_converge * 1.3 + 5
    )
    # More failures never speed things up (monotone within tolerance).
    assert (
        stale[0.05].iterations_to_converge
        >= stale[0.0].iterations_to_converge - 5
    )
    # Every STALE run converges at this margin.
    for rate in FAILURE_RATES:
        assert stale[rate].converged_at is not None, rate
    # The REWEIGHT ablation is at least as robust as STALE at the worst rate.
    reweight_worst = outcomes[
        (StragglerStrategy.REWEIGHT, FAILURE_RATES[-1])
    ].iterations_to_converge
    assert reweight_worst <= stale[FAILURE_RATES[-1]].iterations_to_converge * 1.2 + 5