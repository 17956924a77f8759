"""Hop-weighted communication-cost accounting.

Section II-B: "If a flow traverses h hops of physical links in the network,
the communication cost incurred by this flow would be h times of the flow
size." The tracker records every flow with its hop count and answers the
aggregates the figures need: total cost (Figs. 4c, 8) and per-round series
(Fig. 4b).

There is one store and one write path. Every flow — a
:meth:`~CommunicationCostTracker.record_many` batch or a single
:meth:`~CommunicationCostTracker.record` row — lands in preallocated int64
per-round arrays indexed by round (grown geometrically) and a sorted
per-directed-edge byte counter: O(rounds + edges) memory regardless of how
many flows are recorded. The per-edge runtimes gather a round's frames in a
:class:`FlowBatch` and charge them with one ``record_many`` per (round,
stage); laid out source-ascending, neighbour-ascending, such a batch merges
into the edge counter without a set operation.

The retained per-flow ledger (``retain_records``) is columnar too: each
batch is kept as its validated int64 columns, O(flows) *ints* rather than
objects, and :class:`FlowRecord` views are built only when
:meth:`~CommunicationCostTracker.records` is read.
:meth:`~CommunicationCostTracker.flow_columns` reads the same ledger batch by
batch without building them at all. Streaming consumers (incremental
digests, invariant monitors) subscribe with
:meth:`CommunicationCostTracker.add_observer` and see every validated flow
batch in insertion order without the tracker retaining anything for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.exceptions import ConfigurationError
from repro.types import NodeId

#: Observer signature: ``fn(round_index, sources, destinations, sizes, hops)``
#: with int64 numpy arrays (post-validation, insertion order).
FlowObserver = Callable[[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], None]

_INITIAL_ROUNDS = 64
_EDGE_KEY_SHIFT = 32


def _check_round(round_index: int) -> int:
    """Rounds count from 1 (0 is allowed); a negative index is refused."""
    if round_index < 0:
        raise ConfigurationError(f"round_index must be >= 0, got {round_index}")
    return round_index


@dataclass(frozen=True)
class FlowRecord:
    """One recorded flow."""

    round_index: int
    source: NodeId
    destination: NodeId
    size_bytes: int
    hops: int

    @property
    def cost(self) -> int:
        """Hop-weighted cost of this flow: ``size_bytes * hops``."""
        return self.size_bytes * self.hops


class CommunicationCostTracker:
    """Accumulates flows and reports totals and per-round series.

    Parameters
    ----------
    hop_counts:
        Optional dense all-pairs hop matrix (from
        :func:`repro.topology.all_pairs_hop_counts`). When provided, flows
        may omit their hop count and it is looked up; when absent, every
        flow must state its hops explicitly (SNAP traffic is always 1 hop).
    retain_records:
        Keep the per-flow ledger for :meth:`records` / :meth:`flow_columns`.
        Large sweeps (hundreds of nodes × hundreds of rounds) accumulate
        four int64 per directed edge per round; passing ``False`` keeps only
        the columnar per-round / per-edge / total aggregates, which is all
        the figures need.
    """

    def __init__(
        self, hop_counts: np.ndarray | None = None, retain_records: bool = True
    ):
        self._hop_counts = None if hop_counts is None else np.asarray(hop_counts)
        self.retain_records = bool(retain_records)
        # The retained ledger, in insertion order: a (round, sources,
        # destinations, sizes, hops) tuple of owned int64 columns per batch
        # (hops an int when the whole batch shares it).
        self._ledger: list = []
        self._n_flows = 0
        # Columnar per-round series, indexed by round (grown geometrically).
        # _round_touched distinguishes "no traffic recorded" from "a zero-byte
        # round was recorded" so per_round_costs() keeps listing the latter.
        self._round_cost = np.zeros(_INITIAL_ROUNDS, dtype=np.int64)
        self._round_bytes = np.zeros(_INITIAL_ROUNDS, dtype=np.int64)
        self._round_touched = np.zeros(_INITIAL_ROUNDS, dtype=bool)
        self._max_round = -1
        # Per-directed-edge byte counters: sorted key array (src<<32 | dst)
        # with parallel byte counts, merged per batch.
        self._edge_keys = np.empty(0, dtype=np.int64)
        self._edge_bytes = np.empty(0, dtype=np.int64)
        self._per_stage_bytes: dict[str, int] = {}
        self._per_stage_cost: dict[str, int] = {}
        self._total_cost = 0
        self._total_bytes = 0
        self._observers: list[FlowObserver] = []

    # -- streaming ---------------------------------------------------------

    def add_observer(self, observer: FlowObserver) -> None:
        """Subscribe to every validated flow batch, in insertion order.

        Observers are called as ``observer(round_index, sources,
        destinations, sizes, hops)`` with parallel int64 arrays after
        validation and aggregate updates — a single :meth:`record` call
        arrives as a length-1 batch. This is how streaming digests and
        invariant monitors see the ledger without the tracker retaining
        per-flow objects.
        """
        self._observers.append(observer)

    def _notify(self, round_index, sources, destinations, sizes, hops) -> None:
        for observer in self._observers:
            observer(round_index, sources, destinations, sizes, hops)

    # -- recording ---------------------------------------------------------

    def _ensure_round(self, round_index: int) -> None:
        if round_index >= self._round_cost.shape[0]:
            new_size = max(self._round_cost.shape[0] * 2, round_index + 1)
            for name in ("_round_cost", "_round_bytes", "_round_touched"):
                old = getattr(self, name)
                grown = np.zeros(new_size, dtype=old.dtype)
                grown[: old.shape[0]] = old
                setattr(self, name, grown)

    def _accumulate_round(self, round_index: int, cost: int, n_bytes: int) -> None:
        self._ensure_round(round_index)
        self._round_cost[round_index] += cost
        self._round_bytes[round_index] += n_bytes
        self._round_touched[round_index] = True
        if round_index > self._max_round:
            self._max_round = round_index

    def _accumulate_edges(self, keys: np.ndarray, sizes: np.ndarray) -> None:
        if not (keys[1:] > keys[:-1]).all():
            # Unsorted or repeated keys: fold them to one ascending entry per
            # edge. A vectorized round's batch already is one (the engine lays
            # edges out source-ascending, neighbour-ascending) and skips this.
            keys, inverse = np.unique(keys, return_inverse=True)
            folded = np.zeros(keys.shape[0], dtype=np.int64)
            np.add.at(folded, inverse, sizes)
            sizes = folded
        positions = np.searchsorted(self._edge_keys, keys)
        new = np.ones(keys.shape[0], dtype=bool)
        in_range = positions < self._edge_keys.shape[0]
        new[in_range] = self._edge_keys[positions[in_range]] != keys[in_range]
        if new.any():
            # New directed edges appeared: splice them into the sorted columns.
            self._edge_keys = np.insert(self._edge_keys, positions[new], keys[new])
            self._edge_bytes = np.insert(self._edge_bytes, positions[new], 0)
            positions = np.searchsorted(self._edge_keys, keys)
        self._edge_bytes[positions] += sizes

    def record(
        self,
        round_index: int,
        source: NodeId,
        destination: NodeId,
        size_bytes: int,
        hops: int | None = None,
        stage: str | None = None,
    ) -> FlowRecord:
        """Record one flow; returns the (possibly unretained) record.

        ``stage`` optionally attributes the flow's bytes/cost to a named
        pipeline stage (e.g. a compressor label), aggregated by
        :meth:`stage_bytes` / :meth:`stage_costs`. Unattributed flows are
        counted in the totals only.
        """
        if size_bytes < 0:
            raise ConfigurationError(f"size_bytes must be >= 0, got {size_bytes}")
        if hops is None:
            if self._hop_counts is None:
                raise ConfigurationError(
                    "hops not given and no hop matrix configured"
                )
            hops = self._hop_counts[source, destination]
        # Plain ints at the store boundary: a numpy scalar here would reach
        # records() and repr differently from the streamed ledger entry.
        round_index, hops = int(round_index), int(hops)
        source, destination = int(source), int(destination)
        if hops < 0:
            raise ConfigurationError(
                f"no route from {source} to {destination} (hops={hops})"
            )
        record = FlowRecord(round_index, source, destination, int(size_bytes), hops)
        columns = np.array(
            [[source], [destination], [record.size_bytes], [hops]], dtype=np.int64
        )
        self._store(round_index, *columns, True, stage)
        return record

    def record_many(
        self,
        round_index: int,
        sources,
        destinations,
        sizes,
        hops=None,
        stage: str | None = None,
    ) -> int:
        """Record a batch of same-round flows without per-flow Python objects.

        ``sources``, ``destinations`` and ``sizes`` are parallel arrays;
        ``hops`` may be a scalar (SNAP's one-hop traffic), a parallel array,
        or ``None`` to look every pair up in the hop matrix. Aggregates are
        updated exactly as ``len(sizes)`` individual :meth:`record` calls
        would; with ``retain_records`` on, the batch is kept as owned copies
        of its columns (the caller may reuse its arrays) and reads back from
        :meth:`records` in the same insertion order. Returns the number of
        flows recorded.
        """
        sources = np.asarray(sources, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if not (sources.shape == destinations.shape == sizes.shape):
            raise ConfigurationError(
                f"sources {sources.shape}, destinations {destinations.shape} "
                f"and sizes {sizes.shape} must be parallel arrays"
            )
        if sizes.size and sizes.min() < 0:
            raise ConfigurationError(
                f"size_bytes must be >= 0, got {int(sizes.min())}"
            )
        if hops is None:
            if self._hop_counts is None:
                raise ConfigurationError(
                    "hops not given and no hop matrix configured"
                )
            hops = self._hop_counts[sources, destinations]
        hops = np.asarray(hops, dtype=np.int64)
        shared_hops = hops.ndim == 0
        hops = np.broadcast_to(hops, sizes.shape)
        if hops.size and hops.min() < 0:
            bad = int(np.argmin(hops))
            raise ConfigurationError(
                f"no route from {int(sources[bad])} to "
                f"{int(destinations[bad])} (hops={int(hops[bad])})"
            )
        self._store(
            round_index, sources, destinations, sizes, hops, shared_hops, stage
        )
        return int(sizes.size)

    def _store(
        self, round_index, sources, destinations, sizes, hops, shared_hops, stage
    ) -> None:
        """The one write: a validated batch of parallel int64 columns."""
        _check_round(round_index)
        costs = sizes * hops
        total_bytes = int(sizes.sum())
        total_cost = int(costs.sum())
        if self.retain_records and sizes.size:
            self._ledger.append(
                (
                    int(round_index),
                    sources.copy(),
                    destinations.copy(),
                    sizes.copy(),
                    int(hops[0]) if shared_hops else hops.copy(),
                )
            )
        self._n_flows += int(sizes.size)
        self._accumulate_round(round_index, total_cost, total_bytes)
        if sizes.size:
            self._accumulate_edges(
                (sources << _EDGE_KEY_SHIFT) | destinations, sizes
            )
        if stage is not None:
            self._per_stage_bytes[stage] = (
                self._per_stage_bytes.get(stage, 0) + total_bytes
            )
            self._per_stage_cost[stage] = (
                self._per_stage_cost.get(stage, 0) + total_cost
            )
        self._total_cost += total_cost
        self._total_bytes += total_bytes
        if self._observers:
            self._notify(round_index, sources, destinations, sizes, hops)

    # -- aggregates --------------------------------------------------------

    @property
    def total_cost(self) -> int:
        """Sum of hop-weighted costs over all recorded flows."""
        return self._total_cost

    @property
    def total_bytes(self) -> int:
        """Sum of raw flow sizes (the testbed's "bytes written into the socket")."""
        return self._total_bytes

    @property
    def n_flows(self) -> int:
        """Number of recorded flows (counted even when records are not retained)."""
        return self._n_flows

    def round_cost(self, round_index: int) -> int:
        """Hop-weighted cost of one round."""
        if _check_round(round_index) > self._max_round:
            return 0
        return int(self._round_cost[round_index])

    def round_bytes(self, round_index: int) -> int:
        """Raw bytes of one round."""
        if _check_round(round_index) > self._max_round:
            return 0
        return int(self._round_bytes[round_index])

    def _per_round_series(self, column: np.ndarray):
        touched = np.flatnonzero(self._round_touched[: self._max_round + 1])
        return [(int(r), int(column[r])) for r in touched]

    def per_round_costs(self) -> list[tuple[int, int]]:
        """Sorted ``(round, cost)`` pairs for rounds with any traffic."""
        return self._per_round_series(self._round_cost)

    def per_round_bytes(self) -> list[tuple[int, int]]:
        """Sorted ``(round, bytes)`` pairs for rounds with any traffic."""
        return self._per_round_series(self._round_bytes)

    def per_edge_bytes(self) -> dict[tuple[int, int], int]:
        """Total bytes per directed edge, as ``{(source, destination): bytes}``."""
        return {
            (key >> _EDGE_KEY_SHIFT, key & 0xFFFFFFFF): total
            for key, total in zip(
                self._edge_keys.tolist(), self._edge_bytes.tolist()
            )
        }

    def stage_bytes(self) -> dict[str, int]:
        """Raw bytes per attributed pipeline stage (compressor label)."""
        return dict(self._per_stage_bytes)

    def stage_costs(self) -> dict[str, int]:
        """Hop-weighted cost per attributed pipeline stage."""
        return dict(self._per_stage_cost)

    def records(self) -> tuple[FlowRecord, ...]:
        """All recorded flows, in insertion order.

        Raises :class:`~repro.exceptions.ConfigurationError` when the tracker
        was built with ``retain_records=False`` — the per-flow ledger was
        never kept, and silently returning an empty tuple would corrupt any
        analysis built on it.
        """
        return tuple(
            FlowRecord(round_index, *flow)
            for round_index, *columns in self.flow_columns()
            for flow in zip(*(column.tolist() for column in columns))
        )

    def flow_columns(
        self,
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The retained ledger as column batches, in insertion order.

        Yields ``(round_index, sources, destinations, sizes, hops)`` with
        parallel int64 arrays — the observer signature, and the flows of
        :meth:`records` in the same order, without building a
        :class:`FlowRecord` per flow. A ``record_many`` call is one batch, a
        :meth:`record` call a length-1 batch. The arrays are the tracker's
        own: read, don't write.
        Iterating raises like :meth:`records` when the ledger was not retained.
        """
        if not self.retain_records:
            raise ConfigurationError(
                "flow records were not retained (tracker built with "
                "retain_records=False); use the per-round/total aggregates, "
                "or retain records"
            )
        for round_index, sources, destinations, sizes, hops in self._ledger:
            if type(hops) is int:
                hops = np.full(sizes.shape, hops, dtype=np.int64)
            yield round_index, sources, destinations, sizes, hops


class FlowBatch:
    """One round's per-edge frames, gathered for one ledger write.

    The per-edge wires :meth:`add` a flow per frame they put on the wire and
    :meth:`flush` once per round: one :meth:`CommunicationCostTracker.record_many`
    per run of same-stage flows, in insertion order — so a round whose frames
    share a stage is one batch, and the ledger reads exactly as one
    :meth:`~CommunicationCostTracker.record` per frame would have written it.
    """

    __slots__ = ("_runs",)

    def __init__(self) -> None:
        # (stage, sources, destinations, sizes) per run of equal stages.
        self._runs: list[tuple[str | None, list, list, list]] = []

    def add(
        self, source: int, destination: int, size_bytes: int, stage: str | None
    ) -> None:
        """Queue one flow."""
        runs = self._runs
        if not runs or runs[-1][0] != stage:
            runs.append((stage, [], [], []))
        _, sources, destinations, sizes = runs[-1]
        sources.append(source)
        destinations.append(destination)
        sizes.append(size_bytes)

    def flush(self, tracker: CommunicationCostTracker, round_index: int) -> None:
        """Charge every queued one-hop flow to ``round_index``; empty the batch."""
        for stage, sources, destinations, sizes in self._runs:
            tracker.record_many(
                round_index, sources, destinations, sizes, hops=1, stage=stage
            )
        self._runs.clear()
