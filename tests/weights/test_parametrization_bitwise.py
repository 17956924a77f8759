"""The O(|E|) ``EdgeParametrization`` kernels equal the pre-PR-16 ones bit for bit.

Every pinned digest in the repo was captured with the per-node, per-edge
bodies that now live in ``reference_parametrization.py``. The production
kernels reorder no floating-point operation, so equality here is
``tobytes()`` equality — not ``allclose`` — and the scaling guards at the
bottom are counts and bytes, never clocks.
"""

import tracemalloc
from collections.abc import Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.weights.optimizer as optimizer_module
from repro.exceptions import OptimizationError
from repro.simulation.experiments import credit_svm_workload
from repro.topology.generators import (
    complete_topology,
    random_regular_topology,
    random_topology,
    star_topology,
)
from repro.weights.optimizer import optimize_weight_matrix
from repro.weights.parametrization import EdgeParametrization
from tests.weights.reference_parametrization import ReferenceEdgeParametrization


@st.composite
def topologies(draw):
    """Connected graphs; stars and dense graphs put nodes at degree >= 8,
    where ``ndarray.sum()`` switches from left-to-right to pairwise."""
    kind = draw(st.sampled_from(["sparse", "dense", "star", "complete", "regular"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "star":
        return star_topology(draw(st.integers(2, 40)))
    if kind == "complete":
        return complete_topology(draw(st.integers(2, 14)))
    if kind == "regular":
        n = 2 * draw(st.integers(3, 12))
        return random_regular_topology(n, degree=4, seed=seed)
    n = draw(st.integers(3, 24))
    tree_degree = 2.0 * (n - 1) / n
    degree = tree_degree + 1.0 if kind == "sparse" else max(tree_degree, 0.7 * n)
    return random_topology(n, min(degree, n - 1.0), seed=seed)


def thetas(rng, n_edges):
    """θ with negative (box-active) and oversubscribed coordinates, exact
    zeros and ``-0.0`` — everything the solver can hand ``project``."""
    theta = rng.normal(0.2, rng.choice([0.05, 0.3, 2.0]), size=n_edges)
    theta[rng.random(n_edges) < 0.2] = 0.0
    theta[rng.random(n_edges) < 0.1] = -0.0
    return theta


def pair(topo, min_self_weight):
    return (
        EdgeParametrization(topo, min_self_weight),
        ReferenceEdgeParametrization(topo, min_self_weight),
    )


def projected_bytes(parametrization, theta):
    try:
        return parametrization.project(theta).tobytes()
    except OptimizationError:
        return "did not converge"


SELF_WEIGHTS = st.sampled_from([0.0, 1e-3, 0.01, 0.1])
SEEDS = st.integers(0, 2**31 - 1)


@given(topologies(), SELF_WEIGHTS, SEEDS)
@settings(max_examples=150, deadline=None)
def test_project_bitwise_equals_reference(topo, min_self_weight, seed):
    new, old = pair(topo, min_self_weight)
    theta = thetas(np.random.default_rng(seed), new.n_edges)
    assert projected_bytes(new, theta) == projected_bytes(old, theta)


@given(topologies(), SEEDS)
@settings(max_examples=60, deadline=None)
def test_warm_start_on_pruned_support_bitwise_equals_reference(topo, seed):
    """The adaptive re-solve path: θ read off a matrix built on a denser
    support, restricted to the surviving edges and re-projected."""
    rng = np.random.default_rng(seed)
    dense_new, dense_old = pair(topo, 1e-3)
    matrix = dense_old.to_matrix(np.abs(thetas(rng, dense_old.n_edges)) / 4.0)
    round_trip = dense_new.to_matrix(dense_new.from_matrix(matrix))
    assert round_trip.tobytes() == matrix.tobytes()
    keep = rng.random(len(topo.edges)) < 0.7
    pruned = topo.remove_edges([e for e, kept in zip(topo.edges, keep) if not kept])
    if not pruned.edges:
        return
    new, old = pair(pruned, 1e-3)
    assert new.from_matrix(matrix).tobytes() == old.from_matrix(matrix).tobytes()
    theta = new.from_matrix(matrix)
    assert projected_bytes(new, theta) == projected_bytes(old, theta)


@given(topologies(), SEEDS)
@settings(max_examples=100, deadline=None)
def test_matrix_kernels_bitwise_equal_reference(topo, seed):
    rng = np.random.default_rng(seed)
    new, old = pair(topo, 1e-3)
    theta = thetas(rng, new.n_edges)
    dense = new.to_matrix(theta)
    assert dense.tobytes() == old.to_matrix(theta).tobytes()
    assert new.from_matrix(dense).tobytes() == old.from_matrix(dense).tobytes()
    vector = rng.normal(size=topo.n_nodes) * 10.0 ** rng.integers(-6, 3)
    vector[rng.random(topo.n_nodes) < 0.2] = vector[0]  # equal endpoints: -0.0
    assert (
        new.eigenvalue_subgradient(vector).tobytes()
        == old.eigenvalue_subgradient(vector).tobytes()
    )
    feasible = np.clip(theta, 0.0, None) / (1.0 + topo.n_nodes)
    for candidate in (theta, feasible):
        assert new.is_feasible(candidate) == old.is_feasible(candidate)


def test_hub_past_the_pairwise_block_size():
    """A 139-edge hub: ``ndarray.sum()`` recurses above 128 terms."""
    new, old = pair(star_topology(140), 1e-3)
    theta = np.random.default_rng(5).uniform(-0.005, 0.02, size=new.n_edges)
    assert new.project(theta).tobytes() == old.project(theta).tobytes()


class TestSolveBitwise:
    @staticmethod
    def _solve_both(monkeypatch, topo, **kwargs):
        new = optimize_weight_matrix(topo, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(
                optimizer_module, "EdgeParametrization", ReferenceEdgeParametrization
            )
            old = optimize_weight_matrix(topo, **kwargs)
        return new, old

    @staticmethod
    def _assert_same(new, old):
        assert new.matrix.tobytes() == old.matrix.tobytes()
        assert new.objective_trace == old.objective_trace
        assert (new.problem, new.solver_steps) == (old.problem, old.solver_steps)
        for mine, theirs in zip(new.components, old.components, strict=True):
            assert mine.matrix.tobytes() == theirs.matrix.tobytes()
            assert mine.objective_trace == theirs.objective_trace

    def test_credit_n60_solve_equals_oracle_backed_solve(self, monkeypatch):
        """The ``ref_credit_n60`` set-up: both problems, 300 steps each."""
        topo = credit_svm_workload(n_servers=60).topology
        new, old = self._solve_both(monkeypatch, topo)
        self._assert_same(new, old)
        assert new.solver_steps == 600

    def test_warm_resolve_after_pruning_equals_oracle_backed_solve(self, monkeypatch):
        topo = random_topology(16, 4.0, seed=3)
        prior = optimize_weight_matrix(topo, iterations=40)
        pruned = topo.remove_edges(topo.edges[1:6:2])
        assert pruned.is_connected()
        new, old = self._solve_both(
            monkeypatch, pruned, iterations=40, warm_start=prior, patience=10
        )
        self._assert_same(new, old)


class _CountingEdges(Sequence):
    """An edge list that counts element reads (iteration goes through
    ``__getitem__``, so a second pass over the edges doubles the count)."""

    def __init__(self, edges):
        self._edges = edges
        self.reads = 0

    def __len__(self):
        return len(self._edges)

    def __getitem__(self, index):
        self.reads += 1
        return self._edges[index]


class _TopologyStandIn:
    def __init__(self, topology):
        self.n_nodes = topology.n_nodes
        self.edges = _CountingEdges(topology.edges)


class TestScalingGuards:
    """Clock-free: an O(N·|E|) sweep or constructor cannot come back unnoticed."""

    def test_constructor_reads_the_edge_list_once(self):
        topo = random_regular_topology(256, degree=4, seed=1)
        stand_in = _TopologyStandIn(topo)
        built = EdgeParametrization(stand_in)
        # One pass, plus the IndexError probe that ends a getitem iteration;
        # the old incidence comprehension made n_nodes passes (131 072 reads).
        assert stand_in.edges.reads <= len(topo.edges) + 1
        reference = ReferenceEdgeParametrization(topo)
        assert [list(e) for e in reference._node_edges] == built._node_edges

    def test_project_peak_memory_does_not_scale_with_nodes_times_edges(self):
        topo = random_regular_topology(1024, degree=4, seed=1)
        parametrization = EdgeParametrization(topo)
        theta = np.random.default_rng(0).normal(0.3, 0.2, size=parametrization.n_edges)
        parametrization.project(theta)  # warm-up: import-time and cache allocations
        tracemalloc.start()
        try:
            projected = parametrization.project(theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parametrization.is_feasible(projected, atol=1e-6)
        # 1 025 full-length correction vectors were 17 MB; per-node lists over
        # a node's own 4 edges are a few hundred KiB.
        assert peak < 2 * 2**20, f"project peaked at {peak / 2**20:.2f} MiB"
