"""The :class:`Dataset` container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError


@dataclass(frozen=True)
class Dataset:
    """An immutable ``(X, y)`` pair with shape validation.

    Attributes
    ----------
    X:
        Feature matrix of shape ``(n_samples, n_features)``.
    y:
        Label vector of shape ``(n_samples,)``.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.X)
        y = np.asarray(self.y)
        if X.ndim != 2:
            raise DataError(f"X must be 2-D, got ndim={X.ndim}")
        if y.ndim != 1:
            raise DataError(f"y must be 1-D, got ndim={y.ndim}")
        if X.shape[0] != y.shape[0]:
            raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} labels")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n_samples(self) -> int:
        """Number of rows."""
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        """Number of feature columns."""
        return self.X.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """New dataset containing only ``indices`` (copying, order preserved)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_samples):
            raise DataError(
                f"indices out of range 0..{self.n_samples - 1}"
            )
        return Dataset(self.X[indices].copy(), self.y[indices].copy())

    def __len__(self) -> int:
        return self.n_samples
