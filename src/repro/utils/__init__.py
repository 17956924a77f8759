"""Cross-cutting utilities: RNG handling, validation, linear algebra predicates."""

from repro.utils.rng import make_rng
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)
from repro.utils.linalg import (
    is_doubly_stochastic,
    is_nonnegative,
    is_symmetric,
    second_largest_eigenvalue,
    smallest_eigenvalue,
    sorted_eigenvalues,
)

__all__ = [
    "make_rng",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
    "check_probability",
    "is_doubly_stochastic",
    "is_nonnegative",
    "is_symmetric",
    "second_largest_eigenvalue",
    "smallest_eigenvalue",
    "sorted_eigenvalues",
]
