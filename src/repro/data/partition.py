"""Partition a training set across edge servers.

The paper "randomly allocate[s] each training sample to one of these
servers" — :func:`iid_partition`. The Dirichlet and shard partitioners are
extensions for studying SNAP under non-IID local data (the regime the
consensus formulation of Section III explicitly covers, since each
:math:`f_i` may come from a different distribution :math:`D_i`).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import DataError
from repro.types import SeedLike
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive, check_positive_int


def iid_partition(
    dataset: Dataset, n_parts: int, seed: SeedLike = None
) -> list[Dataset]:
    """Uniformly random partition into ``n_parts`` near-equal shards.

    Every sample lands on exactly one server; shard sizes differ by at most
    one. This reproduces the paper's random sample allocation.
    """
    check_positive_int("n_parts", n_parts)
    if n_parts > dataset.n_samples:
        raise DataError(
            f"cannot split {dataset.n_samples} samples into {n_parts} non-empty parts"
        )
    rng = make_rng(seed)
    order = rng.permutation(dataset.n_samples)
    splits = np.array_split(order, n_parts)
    return [dataset.subset(indices) for indices in splits]


def dirichlet_partition(
    dataset: Dataset,
    n_parts: int,
    concentration: float = 0.5,
    seed: SeedLike = None,
    min_samples: int = 1,
    max_attempts: int = 100,
) -> list[Dataset]:
    """Label-skewed partition: per-class proportions drawn from a Dirichlet.

    Small ``concentration`` values produce highly non-IID shards (each server
    sees only a few classes); large values approach IID. Retries a few times
    for a draw meeting the ``min_samples`` floor; if the dataset is too small
    for that to happen by chance, samples are moved from the largest shards
    until every shard meets the floor, so the partition always succeeds when
    ``n_parts * min_samples <= n_samples``.
    """
    check_positive_int("n_parts", n_parts)
    check_positive("concentration", concentration)
    check_positive_int("min_samples", min_samples)
    if n_parts * min_samples > dataset.n_samples:
        raise DataError(
            f"{n_parts} parts x {min_samples} min samples exceeds dataset size "
            f"{dataset.n_samples}"
        )
    rng = make_rng(seed)
    labels = np.asarray(dataset.y)
    classes = np.unique(labels)
    assignments: list[list[int]] = []
    for _ in range(max_attempts):
        assignments = [[] for _ in range(n_parts)]
        for cls in classes:
            class_indices = np.flatnonzero(labels == cls)
            rng.shuffle(class_indices)
            proportions = rng.dirichlet(np.full(n_parts, concentration))
            counts = _proportions_to_counts(proportions, len(class_indices))
            offset = 0
            for part, count in enumerate(counts):
                assignments[part].extend(class_indices[offset : offset + count])
                offset += count
        if all(len(indices) >= min_samples for indices in assignments):
            break
    else:
        # Repair: move samples from the largest shards into deficient ones.
        while True:
            deficient = min(range(n_parts), key=lambda k: len(assignments[k]))
            if len(assignments[deficient]) >= min_samples:
                break
            donor = max(range(n_parts), key=lambda k: len(assignments[k]))
            assignments[deficient].append(assignments[donor].pop())
    return [dataset.subset(np.array(sorted(idx))) for idx in assignments]


def _proportions_to_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Round proportions to integer counts that sum exactly to ``total``."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    remainder = total - counts.sum()
    if remainder > 0:
        # Give the leftovers to the parts with the largest fractional parts.
        fractional = raw - counts
        for index in np.argsort(-fractional)[:remainder]:
            counts[index] += 1
    return counts
