"""Linear-algebra predicates and spectral helpers for weight matrices.

The notation follows Section III-A of the paper: for a symmetric matrix ``W``
we care about its sorted eigenvalue spectrum, its largest eigenvalue smaller
than one (written :math:`\\bar\\lambda_{max}`), and its smallest eigenvalue.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import WeightMatrixError

#: Default tolerance for structural checks on weight matrices.
DEFAULT_ATOL = 1e-8


def is_symmetric(matrix: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
    """Return ``True`` when ``matrix`` equals its transpose within ``atol``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool(np.allclose(matrix, matrix.T, atol=atol))


def is_nonnegative(matrix: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
    """Return ``True`` when every entry is ``>= -atol``."""
    return bool(np.all(np.asarray(matrix) >= -atol))


def is_doubly_stochastic(matrix: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
    """Return ``True`` when rows and columns sum to one and entries are nonnegative."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    if not is_nonnegative(matrix, atol=atol):
        return False
    ones = np.ones(matrix.shape[0])
    return bool(
        np.allclose(matrix @ ones, ones, atol=atol)
        and np.allclose(matrix.T @ ones, ones, atol=atol)
    )


def sorted_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending.

    Raises :class:`~repro.exceptions.WeightMatrixError` when the matrix is not
    symmetric, because ``eigh`` would silently use only one triangle.
    """
    matrix = np.asarray(matrix, dtype=float)
    if not is_symmetric(matrix, atol=1e-6):
        raise WeightMatrixError("sorted_eigenvalues requires a symmetric matrix")
    return np.linalg.eigvalsh(matrix)[::-1]


def second_largest_eigenvalue(matrix: np.ndarray, one_tol: float = 1e-9) -> float:
    """Largest eigenvalue strictly smaller than ``1`` (:math:`\\bar\\lambda_{max}`).

    For a doubly stochastic ``W`` the top eigenvalue is exactly one; this
    returns the next one down, skipping any further eigenvalues equal to one
    (which occur when the support graph is disconnected).
    """
    eigenvalues = sorted_eigenvalues(matrix)
    below_one = eigenvalues[eigenvalues < 1.0 - one_tol]
    if below_one.size == 0:
        raise WeightMatrixError(
            "matrix has no eigenvalue below 1; it is a projection onto constants "
            "or the identity"
        )
    return float(below_one[0])


def smallest_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue :math:`\\lambda_{min}` of a symmetric matrix."""
    return float(sorted_eigenvalues(matrix)[-1])


def smallest_eigenvalue_sparse(matrix) -> float:
    """λ_min of a symmetric scipy.sparse matrix, without densifying it.

    Uses a deterministically-seeded Lanczos (ARPACK ``which="SA"``) start
    vector, so repeated calls on the same matrix return the same float.
    The value agrees with :func:`smallest_eigenvalue` to solver tolerance —
    not bitwise; pin the step size explicitly when digest-comparing sparse
    against dense runs. Tiny matrices (n < 3, below ARPACK's minimum
    problem size) fall back to the dense path.
    """
    n = matrix.shape[0]
    if n < 3:
        return smallest_eigenvalue(np.asarray(matrix.todense(), dtype=float))
    from scipy.sparse.linalg import eigsh

    v0 = np.random.default_rng(0).standard_normal(n)
    values = eigsh(
        matrix.astype(float), k=1, which="SA", v0=v0, return_eigenvectors=False
    )
    return float(values[0])
