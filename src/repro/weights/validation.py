"""Structural validation of weight matrices against a topology, and the one read of W.

Every consumer of a weight matrix reads it onto the topology's directed-link
index (:attr:`~repro.topology.graph.Topology.directed_edges`) through
:func:`edge_weights`, and every support check is :func:`off_support`.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix, issparse

from repro.exceptions import WeightMatrixError
from repro.topology.graph import Topology
from repro.types import WeightMatrix
from repro.utils.linalg import is_doubly_stochastic, is_symmetric


def check_weight_matrix(
    matrix: WeightMatrix, topology: Topology, atol: float = 1e-7
) -> WeightMatrix:
    """Validate that ``matrix`` is a feasible SNAP weight matrix.

    Feasibility (problems (22)/(23) of the paper) requires the matrix to be:

    * square of size ``topology.n_nodes``,
    * symmetric,
    * doubly stochastic (nonnegative, rows and columns summing to one),
    * supported only on the topology's edges plus the diagonal
      (``w_ij = 0`` whenever ``j not in B_i`` and ``i != j``).

    Returns the validated matrix for inline use: a float array, or — given a
    scipy.sparse matrix — a canonical CSR copy (sorted indices, duplicate
    entries summed, which is the matrix ``W @ x`` multiplies by), so the
    matrix checked is the matrix every engine mixes with. Raises
    :class:`~repro.exceptions.WeightMatrixError` otherwise.
    """
    sparse = issparse(matrix)
    if sparse:
        matrix = csr_matrix(matrix, dtype=float, copy=True)
        matrix.sum_duplicates()
    else:
        matrix = np.asarray(matrix, dtype=float)
    n = topology.n_nodes
    if matrix.shape != (n, n):
        raise WeightMatrixError(
            f"weight matrix shape {matrix.shape} does not match topology size {n}"
        )
    if sparse:
        _check_sparse(matrix, atol)
    elif not is_symmetric(matrix, atol=atol):
        raise WeightMatrixError("weight matrix is not symmetric")
    elif not is_doubly_stochastic(matrix, atol=atol):
        raise WeightMatrixError("weight matrix is not doubly stochastic")
    rows, columns = off_support(matrix, topology, atol)
    if rows.size:
        raise WeightMatrixError(
            f"weight matrix has nonzero entry at non-neighbor pair "
            f"({int(rows[0])}, {int(columns[0])})"
        )
    return matrix


def _check_sparse(matrix: csr_matrix, atol: float) -> None:
    """Symmetry and double stochasticity without densifying an (n, n) array."""
    asymmetry = abs(matrix - matrix.T)
    if asymmetry.nnz and asymmetry.max() > atol:
        raise WeightMatrixError("weight matrix is not symmetric")
    ones = np.ones(matrix.shape[0])
    if (matrix.nnz and matrix.data.min() < -atol) or not (
        np.allclose(matrix @ ones, ones, atol=atol)
        and np.allclose(matrix.T @ ones, ones, atol=atol)
    ):
        raise WeightMatrixError("weight matrix is not doubly stochastic")


def weight_entries(matrix) -> tuple[np.ndarray, np.ndarray]:
    """A sparse ``matrix``'s entries: ascending keys ``row * n + column``, values.

    Read in canonical form — a key stored more than once holds the sum of
    its copies — from a copy when the caller's storage is not canonical.
    """
    matrix = matrix.tocsr()
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    rows = np.repeat(
        np.arange(matrix.shape[0], dtype=np.int64), np.diff(matrix.indptr)
    )
    return rows * matrix.shape[1] + matrix.indices, matrix.data


def edge_weights(matrix, topology: Topology) -> tuple[np.ndarray, np.ndarray]:
    """W's own weights ``W[i, i]`` and link weights over ``topology.directed_edges``.

    ``links[e]`` is ``W[src[e], dst[e]]``: the weight ``src[e]`` gives its
    neighbor ``dst[e]``. A sparse W is read in one pass over its entries,
    not through scipy's scalar ``W[i, j]`` (~30 µs an entry); an entry it
    does not store is 0.0.
    """
    n = topology.n_nodes
    src, dst = topology.directed_edges
    nodes = np.arange(n, dtype=np.int64)
    if not issparse(matrix):
        matrix = np.asarray(matrix, dtype=float)
        return matrix[nodes, nodes], matrix[src, dst]
    keys, values = weight_entries(matrix)

    def at(wanted: np.ndarray) -> np.ndarray:
        found = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        return np.where(keys[found] == wanted, values[found], 0.0)

    return at(nodes * (n + 1)), at(src * n + dst)


def off_support(
    matrix, topology: Topology, atol: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, columns)`` of W's entries above ``atol`` off the support, row-major.

    The support is the diagonal plus every link of ``topology`` (eq. 8:
    ``w_ij = 0`` for ``j`` outside ``B_i``). ``matrix`` must be square of
    size ``topology.n_nodes``.
    """
    if issparse(matrix):
        keys, values = weight_entries(matrix)
        rows, columns = np.divmod(keys[np.abs(values) > atol], topology.n_nodes)
    else:
        rows, columns = np.nonzero(np.abs(np.asarray(matrix, dtype=float)) > atol)
    stray = (rows != columns) & (topology.edge_rows(rows, columns) < 0)
    return rows[stray], columns[stray]
