#!/usr/bin/env python
"""Operating SNAP like a long-running service: progress, crash, resume.

Edge deployments run for days and servers restart. This example shows the
operational surface a real deployment needs:

* live progress via the trainer's ``on_round`` callback (rendered as
  terminal sparklines — no plotting stack required);
* a mid-run checkpoint capturing the complete optimization state;
* a simulated crash, followed by a resume from the checkpoint that
  continues *bit-for-bit* identically to an uninterrupted run;
* random server outages (Section IV-D's "server shut down") along the way,
  absorbed by the straggler machinery.

Run:  python examples/long_running_deployment.py
"""

import numpy as np

from repro.analysis.plots import trace_panel
from repro.core import SNAPConfig, SNAPTrainer, restore_checkpoint, save_checkpoint
from repro.faults import FaultPlan
from repro.simulation import credit_svm_workload
from repro.topology import IndependentNodeFailures


def build_trainer(workload):
    return SNAPTrainer(
        workload.model,
        workload.shards,
        workload.topology,
        config=SNAPConfig(seed=7),
        fault_plan=FaultPlan(nodes=IndependentNodeFailures(0.02, seed=11)),
        initial_params=workload.model.init_params(7),
    )


def main() -> None:
    workload = credit_svm_workload(
        n_servers=12, average_degree=3.0, n_train=2_400, n_test=600, seed=7
    )
    print(
        f"deployment: {workload.n_servers} servers, 2% chance each server is "
        "down in any round"
    )

    # --- phase 1: run 40 rounds, checkpoint, "crash" -------------------------
    losses, traffic = [], []

    def observe(record):
        losses.append(record.mean_loss)
        traffic.append(record.bytes_sent)

    service = build_trainer(workload)
    service.run(max_rounds=40, stop_on_convergence=False, on_round=observe)
    checkpoint = save_checkpoint(service, "/tmp/snap_deployment.npz")
    print(f"\ncheckpoint written after round 40 -> {checkpoint}")
    print("simulating a crash: the process dies here.\n")
    del service

    # --- phase 2: a fresh process resumes from the checkpoint ----------------
    resumed = build_trainer(workload)
    restore_checkpoint(resumed, checkpoint)
    result = resumed.run(
        max_rounds=60,
        stop_on_convergence=False,
        on_round=observe,
        test_set=workload.test_set,
    )

    print("full 100-round history (rounds 1-40 pre-crash, 41-100 resumed):")
    print(" ", trace_panel("mean loss ", losses, width=56))
    print(" ", trace_panel("round bytes", traffic, width=56))
    print()

    # --- verify the resume was exact -----------------------------------------
    reference = build_trainer(workload)
    reference.run(max_rounds=100, stop_on_convergence=False)
    drift = float(
        np.max(np.abs(resumed.stacked_params() - reference.stacked_params()))
    )
    print(
        f"resumed vs uninterrupted run: max parameter drift = {drift:.2e} "
        "(exact resume)"
    )
    print(f"final accuracy {result.final_accuracy:.2%}")


if __name__ == "__main__":
    main()
