"""Small argument validators raising :class:`~repro.exceptions.ConfigurationError`.

Each validator returns its input so it can be used inline::

    self.alpha = check_positive("alpha", alpha)
"""

from __future__ import annotations

import math
from typing import TypeVar

from repro.exceptions import ConfigurationError

_Num = TypeVar("_Num", int, float)


def _check_finite(name: str, value: float) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")


def check_positive(name: str, value: _Num) -> _Num:
    """Require ``value > 0``."""
    _check_finite(name, value)
    if value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: _Num) -> _Num:
    """Require ``value >= 0``."""
    _check_finite(name, value)
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_positive_int(name: str, value: int) -> int:
    """Require an ``int`` strictly greater than zero."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``."""
    _check_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Require ``0 < value < 1`` (an open-interval fraction)."""
    _check_finite(name, value)
    if not 0.0 < value < 1.0:
        raise ConfigurationError(f"{name} must be in (0, 1), got {value!r}")
    return value
