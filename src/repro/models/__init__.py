"""From-scratch numpy ML models with exact full-batch gradients.

EXTRA (and hence SNAP) is a deterministic first-order method: every edge
server evaluates the *full* gradient of its local objective each iteration.
These models supply exactly that — a flat parameter vector, a scalar loss,
and a hand-derived gradient — with no autodiff dependency.

The paper trains two models: a 3-layer fully connected neural network
(784-30-10) on MNIST for the testbed, and a linear SVM (24 parameters) on the
credit-default data for the large-scale simulations. Logistic, ridge, and
softmax regression round out the substrate for examples and tests (ridge has
a closed-form optimum, which makes convergence tests exact).
"""

from repro.models.base import Model
from repro.models.svm import LinearSVM
from repro.models.logistic import LogisticRegression
from repro.models.ridge import RidgeRegression
from repro.models.softmax import SoftmaxRegression
from repro.models.mlp import MLPClassifier
from repro.models.metrics import accuracy_score

__all__ = [
    "Model",
    "LinearSVM",
    "LogisticRegression",
    "RidgeRegression",
    "SoftmaxRegression",
    "MLPClassifier",
    "accuracy_score",
]
