"""Empirical CDF helpers for the Fig. 2 log-CDF plots."""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError


def fraction_below(values: np.ndarray, threshold: float) -> float:
    """Fraction of entries ``<= threshold`` — one point of the CDF.

    This is how the paper reads its plots: "more than 90% of the parameter
    differences are less than 1e-3" is ``fraction_below(diffs, 1e-3) > 0.9``.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise DataError("cannot evaluate a CDF on an empty array")
    return float(np.mean(values <= threshold))
