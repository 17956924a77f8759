#!/usr/bin/env python
"""Straggler resilience (Section IV-D, Fig. 9) and the REWEIGHT ablation.

Edge links fail: congestion, interference, servers going down. SNAP's rule
is to keep computing with the latest parameters received. This example
injects random link outages at increasing rates and shows

* convergence barely suffers at realistic (1%) failure rates;
* the residual accuracy/loss floor grows with the failure rate under the
  paper's stale-value rule;
* the REWEIGHT strategy (fold a failed link's weight onto the diagonal for
  the round) removes that floor entirely.

Run:  python examples/straggler_resilience.py
"""

from repro.analysis.reporting import ascii_table
from repro.core.config import SNAPConfig, StragglerStrategy
from repro.faults import FaultPlan
from repro.simulation import credit_svm_workload, run_scheme
from repro.simulation.runner import reference_target_loss
from repro.topology import IndependentLinkFailures

FAILURE_RATES = (0.0, 0.01, 0.05, 0.10)


def main() -> None:
    workload = credit_svm_workload(
        n_servers=20, average_degree=3.0, n_train=3_000, n_test=750, seed=9
    )
    target = reference_target_loss(workload, margin=0.08)
    print(
        f"{workload.n_servers} servers, {workload.topology.n_edges} links; "
        f"convergence target: loss <= {target:.4f}"
    )

    rows = []
    for strategy in (StragglerStrategy.STALE, StragglerStrategy.REWEIGHT):
        for rate in FAILURE_RATES:
            fault_plan = FaultPlan(
                links=IndependentLinkFailures(rate, seed=13) if rate > 0 else None
            )
            result = run_scheme(
                "snap",
                workload,
                max_rounds=600,
                fault_plan=fault_plan,
                snap_config=SNAPConfig(
                    straggler_strategy=strategy, max_rounds=600
                ),
                detector_kwargs={"target_loss": target},
            )
            rows.append(
                [
                    strategy.value,
                    f"{rate:.0%}",
                    result.iterations_to_converge,
                    "yes" if result.converged_at is not None else "NO",
                    f"{result.final_accuracy:.4f}",
                ]
            )
    print()
    print(
        ascii_table(
            ["strategy", "links down", "iterations", "converged", "accuracy"],
            rows,
        )
    )
    print()
    print(
        "the paper's stale-value rule (STALE) tolerates small outage rates\n"
        "almost for free; REWEIGHT keeps every round's mixing doubly\n"
        "stochastic and stays unaffected even at 10% outages."
    )


if __name__ == "__main__":
    main()
