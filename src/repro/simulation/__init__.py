"""Experiment driver: one entry point per scheme, per-figure workloads, sweeps.

:func:`~repro.simulation.runner.run_scheme` builds and runs any of the six
schemes the paper compares (snap, snap0, sno, ps, terngrad, centralized) on a
common workload with a shared initialization, so that differences in the
results come from the algorithms and not from setup noise.
:mod:`~repro.simulation.experiments` packages the paper's two workloads
(credit-SVM for the large-scale simulations, MNIST-MLP for the testbed);
:mod:`~repro.simulation.sweep` runs the network-scale and node-degree sweeps
behind Figs. 5–8.
"""

from repro.simulation.runner import (
    SCHEMES,
    reference_target_loss,
    run_comparison,
    run_scheme,
)
from repro.simulation.experiments import (
    Workload,
    credit_svm_workload,
    mnist_mlp_workload,
)
from repro.simulation.sweep import sweep_node_degree, sweep_network_scale

__all__ = [
    "SCHEMES",
    "reference_target_loss",
    "run_scheme",
    "run_comparison",
    "Workload",
    "credit_svm_workload",
    "mnist_mlp_workload",
    "sweep_network_scale",
    "sweep_node_degree",
]
