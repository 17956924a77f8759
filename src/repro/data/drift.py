"""Time-varying shard schedules: data that drifts while training runs.

Fixed shards certify SNAP against *where* the data sits; these schedules
certify it against data that *changes under the run* — the label-shift and
streaming-arrival regimes of edge deployments. A schedule maps each node's
base shard to a per-epoch shard, with epochs advancing every ``period``
trainer rounds.

The trainer treats each epoch boundary as an EXTRA restart: it swaps every
server's local dataset, then reloads the run state through the same
rebuild and re-index a topology swap uses, with every edge kept in place;
the re-index clears the gradient-difference recursion (the ``x^k`` /
``∇f(x^k)`` terms straddling a data change are incoherent). Shards are a
pure function of
``(seed, node, epoch)``, so all three engines — and a checkpoint-resumed
run — see the identical drift pattern, which keeps drifting runs inside the
differential equivalence class.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.types import SeedLike
from repro.utils.rng import make_rng
from repro.utils.validation import check_fraction, check_positive_int


class DriftSchedule(abc.ABC):
    """Deterministic per-node, per-epoch shard transformation."""

    def __init__(self, period: int):
        check_positive_int("period", period)
        self.period = int(period)

    def epoch(self, round_index: int) -> int:
        """Epoch active during 1-based ``round_index`` (non-decreasing)."""
        if round_index < 1:
            raise ConfigurationError(
                f"round_index must be >= 1, got {round_index}"
            )
        return (round_index - 1) // self.period

    @abc.abstractmethod
    def shard(self, node: int, base: Dataset, epoch: int) -> Dataset:
        """The dataset ``node`` trains on during ``epoch`` (never empty)."""


class LabelShiftDrift(DriftSchedule):
    """Rotating label-distribution shift.

    Each epoch, every node resamples its base shard (with replacement, same
    size) under class weights that boost one focal label — and the focal
    label rotates with the epoch, so the local distributions keep moving.
    Epoch 0 is the base shard unchanged: rounds before the first boundary
    match a drift-free run exactly.
    """

    def __init__(self, period: int, boost: float = 4.0, seed: SeedLike = None):
        super().__init__(period)
        if not boost > 1.0:
            raise ConfigurationError(
                f"boost must be > 1 (1.0 is no drift), got {boost}"
            )
        self.boost = float(boost)
        self._root_seed = int(make_rng(seed).integers(0, 2**63 - 1))

    def shard(self, node: int, base: Dataset, epoch: int) -> Dataset:
        if epoch == 0:
            return base
        labels = np.asarray(base.y)
        classes = np.unique(labels)
        focal = classes[(int(epoch) + int(node)) % len(classes)]
        weights = np.where(labels == focal, self.boost, 1.0)
        rng = make_rng((self._root_seed, int(node), int(epoch)))
        indices = rng.choice(
            base.n_samples,
            size=base.n_samples,
            replace=True,
            p=weights / weights.sum(),
        )
        return base.subset(np.sort(indices))

    def __repr__(self) -> str:
        return f"LabelShiftDrift(period={self.period}, boost={self.boost})"


class StreamingArrival(DriftSchedule):
    """Streaming data arrival: each node sees a growing prefix of its shard.

    Epoch ``e`` exposes the first
    ``min(n, ceil(n·initial_fraction) + e·ceil(n·arrival_fraction))``
    samples — training starts on a small window and new samples arrive at
    every epoch boundary until the full shard is visible.
    """

    def __init__(
        self,
        period: int,
        initial_fraction: float = 0.25,
        arrival_fraction: float = 0.25,
    ):
        super().__init__(period)
        check_fraction("initial_fraction", initial_fraction)
        check_fraction("arrival_fraction", arrival_fraction)
        if initial_fraction <= 0.0:
            raise ConfigurationError(
                f"initial_fraction must be > 0, got {initial_fraction}"
            )
        if arrival_fraction <= 0.0:
            raise ConfigurationError(
                f"arrival_fraction must be > 0, got {arrival_fraction}"
            )
        self.initial_fraction = float(initial_fraction)
        self.arrival_fraction = float(arrival_fraction)

    def shard(self, node: int, base: Dataset, epoch: int) -> Dataset:
        n = base.n_samples
        visible = min(
            n,
            math.ceil(n * self.initial_fraction)
            + int(epoch) * math.ceil(n * self.arrival_fraction),
        )
        visible = max(visible, 1)
        if visible == n:
            return base
        return base.subset(np.arange(visible))

    def __repr__(self) -> str:
        return (
            f"StreamingArrival(period={self.period}, "
            f"initial_fraction={self.initial_fraction}, "
            f"arrival_fraction={self.arrival_fraction})"
        )
