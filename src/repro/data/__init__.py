"""Synthetic datasets and shard partitioners.

The paper evaluates on two public datasets we cannot download in this
offline environment, so we generate faithful synthetic stand-ins (see the
substitution table in DESIGN.md):

* :class:`~repro.data.mnist.SyntheticMNIST` — a 10-class, 28x28 image dataset
  shaped exactly like MNIST (50 000 train / 10 000 test) built from noisy
  class templates, learnable by the paper's 784-30-10 MLP.
* :class:`~repro.data.credit.SyntheticCreditDefault` — a 30 000 x 24 binary
  classification dataset shaped like UCI "default of credit card clients",
  the paper's SVM workload.

Partitioners split a training set across edge servers: the paper "randomly
distribute[s] the training samples among the edge servers" (IID), and we add
Dirichlet and shard partitioners for non-IID extension experiments.
"""

from repro.data.dataset import Dataset
from repro.data.drift import DriftSchedule, LabelShiftDrift, StreamingArrival
from repro.data.mnist import SyntheticMNIST
from repro.data.credit import SyntheticCreditDefault
from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
)

__all__ = [
    "Dataset",
    "SyntheticMNIST",
    "SyntheticCreditDefault",
    "iid_partition",
    "dirichlet_partition",
    "DriftSchedule",
    "LabelShiftDrift",
    "StreamingArrival",
]
