"""Shared fixtures for the test suite.

Everything is deliberately small: tests exercise behaviour and invariants,
not paper-scale performance (that is the benchmark harness's job).
"""

from __future__ import annotations

import importlib.util
import os
import signal
import threading

import numpy as np
import pytest

from repro.data.credit import SyntheticCreditDefault
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.models.ridge import RidgeRegression
from repro.models.svm import LinearSVM
from repro.topology.generators import complete_topology, random_topology, ring_topology
from repro.weights.construction import metropolis_weights


_TIMEOUT_PLUGIN_PRESENT = importlib.util.find_spec("pytest_timeout") is not None

#: Default per-test wall-clock limit for socket/thread-heavy suites: a
#: deadlocked testbed must fail fast, not hang the whole run.
NETWORKED_TEST_TIMEOUT_S = 120


def pytest_collection_modifyitems(config, items):
    """Give every networked/integration test a timeout unless it set its own."""
    for item in items:
        path = str(item.fspath)
        networked = (
            f"{os.sep}integration{os.sep}" in path
            or f"{os.sep}runtime{os.sep}" in path
            or f"{os.sep}orchestrator{os.sep}" in path
        )
        if networked and item.get_closest_marker("timeout") is None:
            item.add_marker(pytest.mark.timeout(NETWORKED_TEST_TIMEOUT_S))


@pytest.fixture(autouse=True)
def _timeout_fallback(request):
    """Enforce ``@pytest.mark.timeout`` via SIGALRM when pytest-timeout is absent.

    The real plugin (a dev extra that may not be installed everywhere) takes
    precedence when importable. The fallback only works on POSIX from the
    main thread — elsewhere the marker is quietly advisory.
    """
    marker = request.node.get_closest_marker("timeout")
    if (
        marker is None
        or _TIMEOUT_PLUGIN_PRESENT
        or os.name != "posix"
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    seconds = int(marker.args[0]) if marker.args else NETWORKED_TEST_TIMEOUT_S

    def _expired(signum, frame):
        raise TimeoutError(f"test exceeded its {seconds}s timeout")

    previous_handler = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous_handler)


@pytest.fixture
def rng():
    """A fixed-seed generator for test-local randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_topology():
    """A connected 8-node random topology with average degree ~3."""
    return random_topology(8, 3.0, seed=42)


@pytest.fixture
def triangle_topology():
    """The paper's 3-server fully connected testbed topology."""
    return complete_topology(3)


@pytest.fixture
def ring6():
    """A 6-node ring."""
    return ring_topology(6)


@pytest.fixture
def small_weights(small_topology):
    """Metropolis weights on the small topology."""
    return metropolis_weights(small_topology)


@pytest.fixture
def linear_dataset(rng):
    """A small well-conditioned regression dataset with known solution."""
    n, p = 120, 5
    X = rng.normal(size=(n, p))
    true_w = rng.normal(size=p + 1)  # includes bias
    y = X @ true_w[:-1] + true_w[-1] + 0.05 * rng.normal(size=n)
    return Dataset(X, y)


@pytest.fixture
def binary_dataset(rng):
    """A small linearly separable-ish binary dataset with labels in {-1,+1}."""
    n, p = 160, 6
    X = rng.normal(size=(n, p))
    w = rng.normal(size=p)
    y = np.where(X @ w + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
    return Dataset(X, y)


@pytest.fixture
def svm_model(binary_dataset):
    """A linear SVM sized for ``binary_dataset``."""
    return LinearSVM(n_features=binary_dataset.n_features, regularization=1e-2)


@pytest.fixture
def ridge_model(linear_dataset):
    """A ridge model sized for ``linear_dataset``."""
    return RidgeRegression(n_features=linear_dataset.n_features, regularization=1e-2)


@pytest.fixture
def credit_shards():
    """Four IID shards of a small synthetic credit dataset plus a test set."""
    generator = SyntheticCreditDefault(seed=5)
    train, test = generator.train_test(n_train=800, n_test=200, seed=6)
    shards = iid_partition(train, 4, seed=7)
    return shards, test


def numerical_gradient(f, params, epsilon=1e-6):
    """Central-difference gradient of a scalar function, for gradient checks."""
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        down = params.copy()
        up[i] += epsilon
        down[i] -= epsilon
        grad[i] = (f(up) - f(down)) / (2.0 * epsilon)
    return grad


@pytest.fixture
def gradient_checker():
    """Expose the central-difference helper to tests as a fixture."""
    return numerical_gradient


@pytest.fixture
def restarts(monkeypatch) -> list:
    """The ``(node, iteration at restart)`` of every EXTRA restart while the
    test runs, read by wrapping ``Engine.restart`` and its vectorized
    override: the only code that clears EXTRA's memory."""
    from repro.core.engine import Engine, VectorizedEngine

    log = []
    engine_restart, vectorized_restart = Engine.restart, VectorizedEngine.restart

    def per_edge(engine, nodes):
        # The vectorized override logs its own call; it calls this one
        # only for servers a caller built.
        if not isinstance(engine, VectorizedEngine):
            servers = engine.trainer.servers
            log.extend((int(node), servers[node].iteration) for node in nodes)
        engine_restart(engine, nodes)

    def vectorized(engine, nodes):
        log.extend((int(node), int(engine.iterations[node])) for node in nodes)
        vectorized_restart(engine, nodes)

    monkeypatch.setattr(Engine, "restart", per_edge)
    monkeypatch.setattr(VectorizedEngine, "restart", vectorized)
    return log
