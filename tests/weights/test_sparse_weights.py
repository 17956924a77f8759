"""Sparse end-to-end weight path: CSR Metropolis weights through a full run.

``SNAPConfig(sparse_weights=True)`` keeps W in CSR from construction through
validation, the per-link weight read, the engine's mixing operators, and step-size
selection — no dense (N, N) materialization anywhere. The sparse constructor
must be *bitwise* equal to the dense one entry for entry; full runs must be
digest-equal to dense runs once the step size is pinned (the Lanczos λ_min
matches the dense eigensolver only to solver tolerance, so an auto-derived
alpha may differ in the last bits).
"""

import dataclasses

import numpy as np
import pytest
from scipy.sparse import csr_matrix, issparse

from repro.core.config import SNAPConfig
from repro.core.trainer import SNAPTrainer
from repro.exceptions import WeightMatrixError
from repro.testing.digest import capture_run
from repro.testing.scenarios import ScenarioGen
from repro.topology.generators import random_regular_topology, ring_topology
from repro.utils.linalg import smallest_eigenvalue, smallest_eigenvalue_sparse
from repro.weights.construction import metropolis_weights
from repro.weights.validation import check_weight_matrix, edge_weights


class TestSparseConstruction:
    @pytest.mark.parametrize("n,degree", [(8, 3), (20, 4), (50, 6)])
    def test_sparse_metropolis_bitwise_equals_dense(self, n, degree):
        topology = random_regular_topology(n, degree=degree, seed=1)
        dense = metropolis_weights(topology)
        sparse = metropolis_weights(topology, sparse=True)
        assert issparse(sparse)
        assert np.array_equal(sparse.toarray(), dense)

    def test_sparse_matrix_passes_validation(self):
        topology = ring_topology(12)
        sparse = metropolis_weights(topology, sparse=True)
        checked = check_weight_matrix(sparse, topology)
        assert issparse(checked)

    def test_validation_rejects_asymmetric_sparse(self):
        topology = ring_topology(6)
        sparse = metropolis_weights(topology, sparse=True).tolil()
        sparse[0, 1] += 0.05
        with pytest.raises(WeightMatrixError):
            check_weight_matrix(sparse.tocsr(), topology)

    def test_edge_weights_match_the_dense_rows(self):
        topology = random_regular_topology(10, degree=3, seed=2)
        dense = metropolis_weights(topology)
        sparse = metropolis_weights(topology, sparse=True)
        src, dst = topology.directed_edges
        for matrix in (dense, sparse):
            own, links = edge_weights(matrix, topology)
            assert own.tolist() == np.diag(dense).tolist()
            assert links.tolist() == dense[src, dst].tolist()


def _with_reversed_rows(matrix) -> csr_matrix:
    """The same CSR matrix with every row's entries stored in descending column order."""
    indices, data = matrix.indices.copy(), matrix.data.copy()
    for start, stop in zip(matrix.indptr, matrix.indptr[1:]):
        indices[start:stop] = matrix.indices[start:stop][::-1]
        data[start:stop] = matrix.data[start:stop][::-1]
    unsorted = csr_matrix((data, indices, matrix.indptr.copy()), shape=matrix.shape)
    assert not unsorted.has_sorted_indices
    return unsorted


class TestUnsortedStoredOrder:
    """W reads the same whatever order the CSR stores its columns in."""

    def test_unsorted_storage_reads_as_sorted(self):
        topology = random_regular_topology(10, degree=3, seed=2)
        sparse = metropolis_weights(topology, sparse=True)
        unsorted = _with_reversed_rows(sparse)
        for got, expected in zip(
            edge_weights(unsorted, topology), edge_weights(sparse, topology)
        ):
            assert got.tolist() == expected.tolist()
        checked = check_weight_matrix(unsorted, topology)
        assert checked.has_canonical_format
        assert np.array_equal(checked.indices, sparse.indices)
        assert np.array_equal(checked.data, sparse.data)
        # The caller's matrix is left as it was given.
        assert not unsorted.has_sorted_indices

    def test_trainer_digest_equals_the_sorted_matrix_run(self):
        scenario = ScenarioGen(master_seed=11).scenario(0)
        # Pinned alpha: Lanczos sums in stored order, so an auto-derived step
        # size may differ in the last bits between the two storage orders.
        config = dataclasses.replace(
            scenario.config("vectorized"), optimize_weights=False, alpha=0.05
        )
        sparse = metropolis_weights(scenario.topology(), sparse=True)

        def run(weight_matrix):
            trainer = SNAPTrainer(
                scenario.model(),
                scenario.shards(),
                scenario.topology(),
                config,
                fault_plan=scenario.fault_plan(),
                weight_matrix=weight_matrix,
            )
            assert trainer.weight_matrix.has_canonical_format
            return capture_run(trainer)

        sorted_digest = run(sparse)
        unsorted_digest = run(_with_reversed_rows(sparse))
        assert unsorted_digest == sorted_digest, sorted_digest.diff(unsorted_digest)


def _stored_as_halves(matrix) -> csr_matrix:
    """``matrix`` with every entry stored twice, as two exact halves."""
    coo = matrix.tocoo()
    rows = np.concatenate([coo.row, coo.row])
    columns = np.concatenate([coo.col, coo.col])
    values = np.concatenate([0.5 * coo.data, 0.5 * coo.data])
    # Raw CSR arrays: csr_matrix((data, (i, j))) would sum the copies.
    order = np.lexsort((columns, rows))
    indptr = np.searchsorted(rows[order], np.arange(matrix.shape[0] + 1))
    doubled = csr_matrix(
        (values[order], columns[order], indptr), shape=matrix.shape
    )
    assert doubled.nnz == 2 * matrix.nnz and not doubled.has_canonical_format
    return doubled


class TestDuplicateStorage:
    """A W storing an entry more than once is the sum of its copies.

    That is what ``check_weight_matrix``, the step size and ``W @ x`` see,
    so it is also what every engine mixes with.
    """

    def test_check_returns_the_summed_canonical_copy(self):
        topology = ring_topology(8)
        sparse = metropolis_weights(topology, sparse=True)
        doubled = _stored_as_halves(sparse)
        checked = check_weight_matrix(doubled, topology)
        assert checked.has_canonical_format
        assert np.array_equal(checked.toarray(), sparse.toarray())
        assert doubled.nnz == 2 * sparse.nnz  # the caller's storage is untouched
        own, links = edge_weights(doubled, topology)
        assert own.tolist() == sparse.diagonal().tolist()
        assert links.tolist() == edge_weights(sparse, topology)[1].tolist()

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_trainer_digest_equals_the_canonical_matrix_run(self, engine):
        scenario = ScenarioGen(master_seed=11).scenario(0)
        config = dataclasses.replace(
            scenario.config(engine), optimize_weights=False
        )
        sparse = metropolis_weights(scenario.topology(), sparse=True)

        def run(weight_matrix):
            trainer = SNAPTrainer(
                scenario.model(),
                scenario.shards(),
                scenario.topology(),
                config,
                fault_plan=scenario.fault_plan(),
                weight_matrix=weight_matrix,
            )
            return capture_run(trainer)

        canonical = run(sparse)
        doubled = run(_stored_as_halves(sparse))
        assert doubled == canonical, canonical.diff(doubled)


class TestSparseSpectrum:
    def test_lanczos_lambda_min_agrees_with_dense(self):
        topology = random_regular_topology(30, degree=4, seed=3)
        sparse = metropolis_weights(topology, sparse=True)
        dense_value = smallest_eigenvalue(sparse.toarray())
        sparse_value = smallest_eigenvalue_sparse(sparse)
        assert sparse_value == pytest.approx(dense_value, abs=1e-8)

    def test_tiny_matrix_falls_back_to_dense(self):
        topology = ring_topology(3)  # n == 3 ring is a triangle
        sparse = metropolis_weights(topology, sparse=True)
        tiny = sparse[:2, :2].tocsr()
        assert smallest_eigenvalue_sparse(tiny) == pytest.approx(
            smallest_eigenvalue(tiny.toarray())
        )


class TestSparseRunEquality:
    @pytest.mark.parametrize("index", [0, 2])
    def test_sparse_run_digest_equals_dense_with_pinned_alpha(self, index):
        scenario = ScenarioGen(master_seed=11).scenario(index)
        base = dataclasses.replace(
            scenario.config("vectorized"),
            optimize_weights=False,
            alpha=0.05,
        )

        def build(sparse: bool) -> SNAPTrainer:
            return SNAPTrainer(
                scenario.model(),
                scenario.shards(),
                scenario.topology(),
                dataclasses.replace(base, sparse_weights=sparse),
                fault_plan=scenario.fault_plan(),
            )

        dense_digest = capture_run(build(False))
        sparse_trainer = build(True)
        assert issparse(sparse_trainer.weight_matrix)
        sparse_digest = capture_run(sparse_trainer)
        assert sparse_digest == dense_digest, dense_digest.diff(sparse_digest)

    def test_sparse_run_with_auto_alpha_completes(self):
        scenario = ScenarioGen(master_seed=11).scenario(0)
        config = dataclasses.replace(
            scenario.config("vectorized"),
            optimize_weights=False,
            sparse_weights=True,
        )
        trainer = SNAPTrainer(
            scenario.model(),
            scenario.shards(),
            scenario.topology(),
            config,
            fault_plan=scenario.fault_plan(),
        )
        result = trainer.run(stop_on_convergence=False)
        assert np.isfinite(result.rounds[-1].mean_loss)

    def test_strict_invariants_run_on_sparse_weights(self):
        scenario = ScenarioGen(master_seed=11).scenario(0)
        config = dataclasses.replace(
            scenario.config("vectorized", invariants="strict"),
            optimize_weights=False,
            sparse_weights=True,
            alpha=0.05,
        )
        trainer = SNAPTrainer(
            scenario.model(),
            scenario.shards(),
            scenario.topology(),
            config,
            fault_plan=scenario.fault_plan(),
        )
        trainer.run(stop_on_convergence=False)
        summary = trainer.monitor.summary()
        assert summary["weight-stochasticity"] == 1
        assert summary["weight-spectrum"] == 1
        assert summary["byte-ledger"] == trainer.rounds_completed
