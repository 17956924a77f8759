"""Canonical run digests: one versioned fingerprint per training run.

A :class:`RunDigest` condenses everything the bit-for-bit contracts pin —
the :class:`~repro.results.RoundRecord` stream, the flow ledger, the final
mean parameters, and the post-run per-server state — into a small set of
SHA-256 hex digests plus the exact byte totals. Two runs are *the same run*
iff their digests are equal; the regression pins in
``tests/compression/test_regression_pin.py`` and the differential harness
(:mod:`repro.testing.differential`) both compare runs this way.

The hashing recipe is **frozen**: the ``rounds_sha`` / ``ledger_sha`` /
``final_params_sha`` fields reproduce, byte for byte, the golden digests
captured before this module existed (when the recipe lived copy-pasted in
the compression test suite). Changing any canonical trace entry therefore
requires bumping :data:`DIGEST_VERSION` and re-capturing every pin —
digests of different versions never compare equal and refuse to load.

On top of the legacy recipe the digest adds ``server_state_sha``, covering
the per-server state (parameters, iteration counters, views, link state,
freshness) read from the engine's columnar ``state()``, the APE schedule
state machines — exactly the surface the engine-equivalence suite asserts
field by field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.engine import edge_blocks
from repro.exceptions import ConfigurationError

#: Version of the canonical serialization below. Bump when any trace entry
#: changes shape; digests only compare equal within one version.
DIGEST_VERSION = 1

#: The fields a pre-``repro.testing`` golden pin recorded (and the exact
#: keys :meth:`RunDigest.pinned` still emits).
LEGACY_PIN_KEYS = (
    "rounds_sha",
    "ledger_sha",
    "final_params_sha",
    "total_bytes",
    "total_cost",
    "final_loss",
)


def round_trace_entry(record) -> tuple:
    """The canonical, hash-stable tuple for one :class:`RoundRecord`.

    Floats travel as ``float.hex()`` so the entry is exact (no repr rounding
    ambiguity) and the hash is platform independent.
    """
    return (
        record.round_index,
        record.mean_loss.hex(),
        record.consensus_error.hex(),
        record.bytes_sent,
        record.cost,
        record.params_sent,
        record.stale_links,
        record.max_staleness,
        record.connected,
    )


def flow_trace_entry(flow) -> tuple:
    """The canonical tuple for one :class:`~repro.network.cost.FlowRecord`."""
    return (flow.round_index, flow.source, flow.destination, flow.size_bytes, flow.hops)


def fold_flow_batch(
    digest: "hashlib._Hash", round_index, sources, destinations, sizes, hops
) -> list:
    """Hash one flow batch into ``digest``; returns its canonical entries.

    The one ledger-hashing loop, for a tracker observer batch (live, in
    :class:`DigestStream`) and a ``flow_columns()`` batch (afterwards, in
    :meth:`RunDigest.capture`) alike; an entry is :func:`flow_trace_entry`
    of the flow's ``FlowRecord``. ``.tolist()`` is load-bearing: numpy 2.x
    scalar reprs ("np.int64(5)") would corrupt the frozen recipe.
    """
    round_index = int(round_index)
    entries = [
        (round_index, *flow)
        for flow in zip(
            sources.tolist(), destinations.tolist(), sizes.tolist(), hops.tolist()
        )
    ]
    for entry in entries:
        digest.update(repr(entry).encode())
    return entries


def _sha_of_entries(entries) -> str:
    digest = hashlib.sha256()
    for entry in entries:
        digest.update(repr(entry).encode())
    return digest.hexdigest()


def _hash_array(digest: "hashlib._Hash", label: str, array) -> None:
    digest.update(label.encode())
    if array is None:
        digest.update(b"<none>")
    else:
        digest.update(np.ascontiguousarray(array).tobytes())


def server_state_sha(trainer) -> str:
    """SHA-256 over the per-server state of a trainer, read from ``engine.state()``.

    Covers exactly the surface the engine-equivalence contract compares:
    per-server parameters, iteration counter, previous-iterate layer,
    per-neighbor views / ``last_sent`` / freshness and the APE schedule
    state (not the previous-*views* layer, engine bookkeeping the contract
    does not pin). The byte stream is the per-server walk's — node by node,
    each neighbor's freshness, its view held by the node, the node's
    ``last_sent`` for it — so the servers need not be synced first.
    """
    state = trainer.engine.state()
    n_nodes = state.params.shape[0]
    blocks, reverse = edge_blocks(state.src, state.dst, n_nodes)
    reverse = reverse.tolist()
    neighbors, fresh = state.dst.tolist(), state.fresh.tolist()
    iterations, has_previous = state.iteration.tolist(), state.has_previous.tolist()
    digest = hashlib.sha256()
    for node in range(n_nodes):
        digest.update(repr((node, iterations[node])).encode())
        previous = state.previous_params[node] if has_previous[node] else None
        _hash_array(digest, "params", state.params[node])
        _hash_array(digest, "previous", previous)
        for e in range(blocks[node], blocks[node + 1]):
            digest.update(repr(("edge", neighbors[e], fresh[reverse[e]])).encode())
            _hash_array(digest, "view", state.views[reverse[e]])
            _hash_array(digest, "last_sent", state.last_sent[e])
    if trainer._schedules is not None:
        for schedule in trainer._schedules:
            digest.update(repr(sorted(schedule.state_dict().items())).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class RunDigest:
    """A versioned fingerprint of one completed training run.

    Equality compares the hashes and totals only; the raw traces ride along
    (``compare=False``) so :meth:`diff` can point at the first diverging
    round or flow instead of just saying "hashes differ".
    """

    version: int
    rounds_sha: str
    ledger_sha: str
    final_params_sha: str
    server_state_sha: str
    total_bytes: int
    total_cost: int
    final_loss: str
    rounds_trace: tuple = field(default=(), compare=False, repr=False)
    ledger_trace: tuple = field(default=(), compare=False, repr=False)

    @classmethod
    def capture(cls, trainer, result) -> "RunDigest":
        """Digest a finished run: the trainer's state plus its result.

        ``result`` is the :class:`~repro.results.TrainingResult` returned by
        the ``trainer.run`` call being digested. The flow ledger is hashed
        from the tracker's retained columns when available — batch by
        batch through :func:`fold_flow_batch`, as :class:`DigestStream`
        hashes it live; with ``retain_flow_records=False`` the ledger trace
        is empty and ``ledger_sha`` hashes nothing (the byte/cost totals
        still pin the aggregate).
        """
        rounds_trace = tuple(round_trace_entry(r) for r in result.rounds)
        ledger_digest = hashlib.sha256()
        ledger_trace = []
        if trainer.tracker.retain_records:
            for batch in trainer.tracker.flow_columns():
                ledger_trace.extend(fold_flow_batch(ledger_digest, *batch))
        return cls(
            version=DIGEST_VERSION,
            rounds_sha=_sha_of_entries(rounds_trace),
            ledger_sha=ledger_digest.hexdigest(),
            final_params_sha=hashlib.sha256(
                np.ascontiguousarray(result.final_params).tobytes()
            ).hexdigest(),
            server_state_sha=server_state_sha(trainer),
            total_bytes=trainer.tracker.total_bytes,
            total_cost=trainer.tracker.total_cost,
            final_loss=result.rounds[-1].mean_loss.hex() if result.rounds else "",
            rounds_trace=rounds_trace,
            ledger_trace=tuple(ledger_trace),
        )

    # -- legacy pins -------------------------------------------------------------

    def pinned(self) -> dict:
        """The pre-``repro.testing`` golden-pin dict (exact legacy keys).

        The values are byte-identical to what the duplicated hashing code in
        the old test harness produced, so golden digests captured before the
        extraction keep matching without re-pinning.
        """
        return {key: getattr(self, key) for key in LEGACY_PIN_KEYS}

    def matches_pin(self, pin: dict) -> bool:
        """Whether this digest matches a legacy golden-pin dict."""
        return self.pinned() == dict(pin)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        """Stable JSON form (without the raw traces)."""
        payload = asdict(self)
        payload.pop("rounds_trace")
        payload.pop("ledger_trace")
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunDigest":
        """Load a digest; rejects serializations of a different version."""
        payload = json.loads(text)
        version = payload.get("version")
        if version != DIGEST_VERSION:
            raise ConfigurationError(
                f"run digest version {version!r} does not match this "
                f"implementation's version {DIGEST_VERSION}; digests are only "
                "comparable within one version (re-capture the pin)"
            )
        return cls(**payload)

    # -- diffing -----------------------------------------------------------------

    def diff(self, other: "RunDigest") -> str:
        """Human-readable description of how two digests differ.

        Empty string when equal. When the raw traces were captured, the
        first diverging round record / flow record is printed entry by
        entry; otherwise only the mismatching hash fields are named.
        """
        if not isinstance(other, RunDigest):
            return f"not a RunDigest: {other!r}"
        if self.version != other.version:
            return f"digest version differs: {self.version} != {other.version}"
        lines: list[str] = []
        for name in ("total_bytes", "total_cost", "final_loss"):
            a, b = getattr(self, name), getattr(other, name)
            if a != b:
                lines.append(f"{name}: {a!r} != {b!r}")
        if self.rounds_sha != other.rounds_sha:
            lines.append("rounds_sha differs")
            lines.extend(
                _first_trace_divergence(
                    "round", self.rounds_trace, other.rounds_trace
                )
            )
        if self.ledger_sha != other.ledger_sha:
            lines.append("ledger_sha differs")
            lines.extend(
                _first_trace_divergence(
                    "flow", self.ledger_trace, other.ledger_trace
                )
            )
        if self.final_params_sha != other.final_params_sha:
            lines.append("final_params_sha differs (final mean parameters)")
        if self.server_state_sha != other.server_state_sha:
            lines.append("server_state_sha differs (post-run per-server state)")
        return "\n".join(lines)


def _first_trace_divergence(label: str, left: tuple, right: tuple) -> list[str]:
    if not left or not right:
        return [f"  (raw {label} traces not captured on both sides)"]
    if len(left) != len(right):
        return [f"  {label} count differs: {len(left)} != {len(right)}"]
    for position, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return [
                f"  first diverging {label} at position {position}:",
                f"    left:  {a!r}",
                f"    right: {b!r}",
            ]
    return [f"  (identical {label} traces — hash recipe mismatch?)"]


class DigestStream:
    """Incremental :class:`RunDigest` accumulation during a live run.

    Subscribes to the trainer's round observers and the cost tracker's flow
    observers, folding every round record and every flow into the running
    ``rounds_sha`` / ``ledger_sha`` digests **as they happen** — the exact
    ``DIGEST_VERSION`` canonical bytes the retained-trace path hashes, so
    :meth:`finalize` returns a digest equal to :meth:`RunDigest.capture` on
    the same run, without the trainer retaining any per-round or per-flow
    objects. This is what lets the differential harness certify N=4096-class
    runs with ``retain_flow_records=False`` against golden pins captured
    from fully-retained traces.
    """

    def __init__(self, trainer):
        self._trainer = trainer
        self._rounds_digest = hashlib.sha256()
        self._ledger_digest = hashlib.sha256()
        trainer.tracker.add_observer(self._observe_flows)
        trainer.add_round_observer(self.observe_round)

    def _observe_flows(self, round_index, sources, destinations, sizes, hops):
        # One canonical flow entry per flow, in insertion order — the bytes
        # RunDigest.capture hashes from the retained columns.
        fold_flow_batch(
            self._ledger_digest, round_index, sources, destinations, sizes, hops
        )

    def observe_round(self, record) -> None:
        """Fold one fresh :class:`~repro.results.RoundRecord` into the digest."""
        self._rounds_digest.update(repr(round_trace_entry(record)).encode())

    def finalize(self, result) -> "RunDigest":
        """Seal the stream into a :class:`RunDigest` for the finished run.

        ``result`` is the :class:`~repro.results.TrainingResult` the observed
        ``trainer.run`` call returned. The raw traces are
        empty — equality only compares the hashes and totals, and
        :meth:`RunDigest.diff` falls back to naming the mismatching fields.
        """
        trainer = self._trainer
        return RunDigest(
            version=DIGEST_VERSION,
            rounds_sha=self._rounds_digest.hexdigest(),
            ledger_sha=self._ledger_digest.hexdigest(),
            final_params_sha=hashlib.sha256(
                np.ascontiguousarray(result.final_params).tobytes()
            ).hexdigest(),
            server_state_sha=server_state_sha(trainer),
            total_bytes=trainer.tracker.total_bytes,
            total_cost=trainer.tracker.total_cost,
            final_loss=result.rounds[-1].mean_loss.hex() if result.rounds else "",
        )


def capture_run(trainer, streaming: bool = False, **run_kwargs) -> RunDigest:
    """Run a freshly-built trainer to completion and digest it.

    Convenience for regression pins: ``stop_on_convergence`` defaults to
    ``False`` so the digest always covers the configured round budget.

    With ``streaming=True`` the digest is accumulated incrementally by a
    :class:`DigestStream` during the run instead of from retained traces
    afterwards — byte-identical hashes, and the only mode that works when
    the trainer was built with ``retain_flow_records=False``.
    """
    run_kwargs.setdefault("stop_on_convergence", False)
    if streaming:
        stream = DigestStream(trainer)
        result = trainer.run(**run_kwargs)
        return stream.finalize(result)
    result = trainer.run(**run_kwargs)
    return RunDigest.capture(trainer, result)
