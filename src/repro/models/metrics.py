"""Prediction-quality metrics."""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exactly matching labels.

    Works for both the SVM's ``{-1,+1}`` labels and integer class indices, as
    long as both arrays use the same convention.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise DataError(
            f"shape mismatch: y_true {y_true.shape} vs y_pred {y_pred.shape}"
        )
    if y_true.size == 0:
        raise DataError("cannot compute accuracy of an empty label array")
    return float(np.mean(y_true == y_pred))
