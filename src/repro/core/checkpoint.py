"""Checkpoint / resume for SNAP training runs.

Edge deployments run for a long time and servers restart; a checkpoint
captures every piece of *optimization* state — the engine's run state
(:class:`~repro.core.engine.EngineState`: per-server iterates, the EXTRA
recursion memory, both layers of cached neighbor views with their freshness
flags, per-neighbor link state), the APE
schedules, the compressor RNG streams and the per-link staleness ages — so
a restored run continues bit-for-bit identically to an uninterrupted one,
round records included (verified by ``tests/core/test_checkpoint.py``).

What is deliberately *not* captured: the data shards, the model, and the
topology (the caller reconstructs the trainer from those — checkpoints stay
small), and the communication-cost ledger (accounting restarts at zero; add
the checkpointed run's totals if cumulative traffic is needed). The drift
epoch is not stored either: it is a function of the completed rounds, so
the restore re-derives it and swaps the trainer onto that epoch's shards.

Nor are a swapped topology, its ``W`` and step size, or the adaptive
controller's trigger state, so saving a trainer that has an adaptive
controller or had any swap applied raises ``ConfigurationError``.

Format version 2: a single ``.npz`` file holding each state column under
``state/<column>``, the staleness ages under ``staleness``, and scalars in
a JSON blob under ``__meta__``. Writing reads ``engine.state()`` and builds
no server; reading loads the columns with ``engine.load_state``. Version 1
files (five keys per server) are refused, and so are version 2 files that
carry the error-feedback residual columns this format no longer has.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.core.engine import EngineState
from repro.exceptions import ConfigurationError

#: Format version written into every checkpoint.
CHECKPOINT_VERSION = 2


def save_checkpoint(trainer, path: str | Path) -> Path:
    """Write ``trainer``'s full optimization state to ``path`` (.npz)."""
    if trainer._topology_controller is not None:
        raise ConfigurationError(
            "cannot checkpoint a trainer with an adaptive topology controller "
            "(its swaps and trigger state are not stored)"
        )
    if trainer._swapped:
        raise ConfigurationError(
            "cannot checkpoint a trainer after a topology swap "
            "(the swapped topology, W and step size are not stored)"
        )
    snapshot = trainer.engine.state()  # current mid-run (a round observer) too
    arrays = {f"state/{name}": column for name, column in vars(snapshot).items()}
    arrays["staleness"] = trainer._staleness
    meta: dict = {
        "version": CHECKPOINT_VERSION,
        "compressor": trainer.compressor_spec.label,
        "rounds_completed": trainer.rounds_completed,
    }
    if trainer._schedules is not None:
        meta["schedules"] = [s.state_dict() for s in trainer._schedules]
    edge_rng_states: dict[str, dict] = {}
    for (source, destination), state in sorted(trainer._edge_states.items()):
        if state.rng is not None:
            edge_rng_states[f"{source},{destination}"] = state.rng.bit_generator.state
    if edge_rng_states:
        meta["edge_rng"] = edge_rng_states
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    path = Path(path)
    # Match np.savez's append-.npz-when-missing convention for the final name.
    final = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    # Crash-safe write: serialize into a temp file in the same directory, then
    # atomically rename into place, so a server killed mid-checkpoint can
    # never leave a truncated .npz behind — the previous checkpoint (if any)
    # survives intact until the new one is fully on disk.
    fd, tmp_name = tempfile.mkstemp(
        dir=final.parent, prefix=f".{final.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as stream:
            np.savez(stream, **arrays)
        os.replace(tmp_name, final)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return final


def restore_checkpoint(trainer, path: str | Path) -> None:
    """Load a checkpoint into a freshly constructed, *matching* trainer.

    The trainer must have been built with the same model, shard count and
    topology as the checkpointed one; mismatches raise
    :class:`~repro.exceptions.ConfigurationError`.
    """
    with np.load(Path(path)) as archive:
        if "__meta__" not in archive:
            raise ConfigurationError(f"{path} is not a SNAP checkpoint")
        meta = json.loads(bytes(archive["__meta__"].tobytes()).decode("utf-8"))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"checkpoint version {meta.get('version')} unsupported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        names = {column.name for column in dataclasses.fields(EngineState)}
        stored = {
            key.removeprefix("state/") for key in archive if key.startswith("state/")
        }
        if stored != names:
            extra = ", ".join(f"state/{name}" for name in sorted(stored - names))
            missing = ", ".join(f"state/{name}" for name in sorted(names - stored))
            raise ConfigurationError(
                f"{path} does not hold this format's state columns (extra, "
                f"not in this format: {extra or 'none'}; missing from the "
                f"file: {missing or 'none'})"
            )
        expected = trainer.compressor_spec.label
        if meta["compressor"] != expected:
            raise ConfigurationError(
                f"checkpoint was taken from a {meta['compressor']!r} run but the "
                f"trainer is configured for {expected!r}"
            )
        snapshot = EngineState(**{name: archive[f"state/{name}"] for name in names})
        ages = archive["staleness"]
    n_nodes, n_params = snapshot.params.shape
    topology = trainer.topology
    src, dst = topology.directed_edges
    links = np.array_equal(snapshot.src, src) and np.array_equal(snapshot.dst, dst)
    if n_nodes != topology.n_nodes or not links or ages.size != src.size:
        raise ConfigurationError(
            f"checkpoint ({n_nodes} servers, {snapshot.src.size} directed links, "
            f"{ages.size} link ages) does not fit the trainer's topology "
            f"({topology.n_nodes} servers, {src.size} directed links): restore "
            "into a trainer over the checkpointed topology"
        )
    if n_params != trainer.model.n_params:
        raise ConfigurationError(
            f"checkpoint model dimension {n_params} does not match "
            f"trainer's {trainer.model.n_params}"
        )

    trainer.rounds_completed = int(meta["rounds_completed"])
    if trainer._schedules is not None:
        schedule_states = meta.get("schedules")
        if schedule_states is None:
            raise ConfigurationError(
                "trainer uses APE schedules but the checkpoint has none"
            )
        for schedule, schedule_state in zip(trainer._schedules, schedule_states):
            schedule.load_state_dict(schedule_state)
    if trainer.config.drift is not None and trainer.rounds_completed:
        # The shards of the last completed round's epoch; the recursion
        # restart this makes is overwritten by load_state below.
        trainer._maybe_apply_drift(trainer.rounds_completed)
    trainer._edge_states.clear()
    for edge_key, rng_state in meta.get("edge_rng", {}).items():
        source, _, destination = edge_key.partition(",")
        state = trainer._edge_state(int(source), int(destination))
        if state.rng is None:
            raise ConfigurationError(
                f"checkpoint carries RNG state for edge {edge_key} but the "
                f"{expected!r} compressor draws no randomness"
            )
        state.rng.bit_generator.state = rng_state
    trainer.engine.load_state(snapshot)
    trainer._staleness = ages.astype(np.int64)

