#!/usr/bin/env python
"""Extension: SNAP under non-IID local data.

The paper's formulation (Section III) explicitly allows each edge server's
data distribution D_i to differ — that's why EXTRA (exact convergence) is
needed instead of plain gossip averaging. The paper's simulations only use
IID random allocation; this example stresses the harder regime: Dirichlet
label-skewed shards where some servers see almost only one class.

It demonstrates the formulation's promise: SNAP still converges to the same
global model the centralized baseline finds, with the usual traffic
savings — while a naive "train locally, never exchange" strategy collapses.

Run:  python examples/noniid_federated_edge.py
"""

import numpy as np

from repro.analysis.reporting import ascii_table, format_bytes
from repro.core.config import ShardWeighting, SNAPConfig
from repro.data import SyntheticCreditDefault, dirichlet_partition, iid_partition
from repro.models import LinearSVM, accuracy_score
from repro.simulation.experiments import Workload
from repro.simulation.runner import run_scheme
from repro.topology import random_topology


def build_workload(concentration: float | None, seed: int = 17) -> Workload:
    generator = SyntheticCreditDefault(seed=seed)
    train, test = generator.train_test(n_train=4_000, n_test=1_000, seed=seed + 1)
    topology = random_topology(12, 3.0, seed=seed + 2)
    if concentration is None:
        shards = iid_partition(train, 12, seed=seed + 3)
        label = "iid"
    else:
        shards = dirichlet_partition(
            train, 12, concentration=concentration, seed=seed + 3, min_samples=20
        )
        label = f"dirichlet({concentration})"
    model = LinearSVM(generator.n_features, regularization=1e-2)
    return Workload(
        name=f"noniid_{label}",
        model=model,
        shards=shards,
        topology=topology,
        test_set=test,
        seed=seed,
    )


def local_only_accuracy(workload: Workload) -> float:
    """The no-communication strawman: every server trains alone; report the
    mean test accuracy of the individual local models."""
    model = workload.model
    accuracies = []
    for shard in workload.shards:
        params = model.init_params(seed=workload.seed)
        step = 0.5 / model.gradient_lipschitz_bound(shard.X)
        for _ in range(300):
            params = params - step * model.gradient(params, shard.X, shard.y)
        accuracies.append(
            accuracy_score(
                workload.test_set.y, model.predict(params, workload.test_set.X)
            )
        )
    return float(np.mean(accuracies))


def main() -> None:
    rows = []
    for concentration in (None, 0.5, 0.1):
        workload = build_workload(concentration)
        central = run_scheme("centralized", workload, max_rounds=600)
        snap_runs = {}
        for weighting in (ShardWeighting.UNIFORM, ShardWeighting.SAMPLES):
            config = SNAPConfig(
                shard_weighting=weighting,
                max_rounds=600,
            )
            snap_runs[weighting] = run_scheme(
                "snap",
                workload,
                max_rounds=600,
                snap_config=config,
                stop_on_convergence=False,
            )
        local = local_only_accuracy(workload)
        label = "iid" if concentration is None else f"dirichlet {concentration}"
        rows.append(
            [
                label,
                f"{central.final_accuracy:.4f}",
                f"{snap_runs[ShardWeighting.UNIFORM].final_accuracy:.4f}",
                f"{snap_runs[ShardWeighting.SAMPLES].final_accuracy:.4f}",
                f"{local:.4f}",
                format_bytes(snap_runs[ShardWeighting.SAMPLES].total_bytes),
            ]
        )
    print(
        ascii_table(
            [
                "data split",
                "centralized",
                "snap (eq.4)",
                "snap (sample wt)",
                "local-only",
                "snap traffic",
            ],
            rows,
        )
    )
    print()
    print(
        "Sample-weighted SNAP recovers the centralized model even under heavy\n"
        "label skew, where isolated local training falls apart. The paper's\n"
        "equal-server weighting (eq. 4) optimizes a different aggregate once\n"
        "shard sizes become unequal — visible in the dirichlet rows."
    )


if __name__ == "__main__":
    main()
