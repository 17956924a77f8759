"""repro — a full reproduction of SNAP (ICDCS 2020).

SNAP (Select Neighbors And Parameters) is a communication-efficient
decentralized machine-learning framework for mobile edge computing: edge
servers train a shared model on private local data, exchange parameters only
with direct neighbors via the EXTRA consensus iteration, mix them through a
topology-optimized doubly stochastic weight matrix, and transmit only the
parameters whose change exceeds an Accumulated-Parameter-Error budget.

Quickstart::

    from repro import SNAPTrainer, SNAPConfig
    from repro.simulation import credit_svm_workload, run_scheme

    workload = credit_svm_workload(n_servers=20, average_degree=3, seed=0)
    result = run_scheme("snap", workload, max_rounds=200)
    print(result.summary())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro.core.config import SNAPConfig
from repro.core.trainer import SNAPTrainer
from repro.compression import Compressor, CompressorSpec, build_compressor
from repro.consensus.convergence import ConvergenceDetector
from repro.results import RoundRecord, TrainingResult
from repro.topology.graph import Topology
from repro.exceptions import ReproError

__version__ = "1.0.0"

__all__ = [
    "SNAPTrainer",
    "SNAPConfig",
    "Compressor",
    "CompressorSpec",
    "build_compressor",
    "ConvergenceDetector",
    "TrainingResult",
    "RoundRecord",
    "Topology",
    "ReproError",
    "__version__",
]
