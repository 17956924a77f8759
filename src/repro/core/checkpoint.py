"""Checkpoint / resume for SNAP training runs.

Edge deployments run for a long time and servers restart; a checkpoint
captures every piece of *optimization* state — per-server iterates, the
EXTRA recursion memory, cached neighbor views, per-neighbor link state,
freshness flags, the APE schedules, and per-edge compressor state
(error-feedback residuals and compressor RNG streams) — so a restored run
continues
bit-for-bit identically to an uninterrupted one (verified by
``tests/core/test_checkpoint.py``).

What is deliberately *not* captured: the data shards, the model, and the
topology (the caller reconstructs the trainer from those — checkpoints stay
small), and the communication-cost ledger (accounting restarts at zero; add
the checkpointed run's totals if cumulative traffic is needed).

Format: a single ``.npz`` file. Arrays are stored under structured keys
(``server3/views/5``); scalars ride in a JSON blob under ``meta``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.exceptions import ConfigurationError

#: Format version written into every checkpoint.
CHECKPOINT_VERSION = 1


def save_checkpoint(trainer, path: str | Path) -> Path:
    """Write ``trainer``'s full optimization state to ``path`` (.npz)."""
    trainer.engine.sync_to_servers()  # mid-run (a round observer) too
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {
        "version": CHECKPOINT_VERSION,
        "n_servers": len(trainer.servers),
        "n_params": trainer.model.n_params,
        "alpha": trainer.alpha,
        "selection": trainer.config.selection.value,
        "compressor": trainer.compressor_spec.label,
        "rounds_completed": trainer.rounds_completed,
        "servers": [],
    }
    for index, server in enumerate(trainer.servers):
        prefix = f"server{index}"
        arrays[f"{prefix}/params"] = server.params
        if server.previous_params is not None:
            arrays[f"{prefix}/previous_params"] = server.previous_params
        if server._previous_gradient is not None:
            arrays[f"{prefix}/previous_gradient"] = server._previous_gradient
        for neighbor, view in server.views.items():
            arrays[f"{prefix}/views/{neighbor}"] = view
        for neighbor, view in server.previous_views.items():
            arrays[f"{prefix}/previous_views/{neighbor}"] = view
        for neighbor, sent in server.last_sent.items():
            arrays[f"{prefix}/last_sent/{neighbor}"] = sent
        meta["servers"].append(
            {
                "iteration": server.iteration,
                "has_previous": server.previous_params is not None,
                "fresh": {str(k): bool(v) for k, v in server.fresh.items()},
                "previous_fresh": {
                    str(k): bool(v) for k, v in server.previous_fresh.items()
                },
            }
        )
    if trainer._schedules is not None:
        meta["schedules"] = [s.state_dict() for s in trainer._schedules]
    edge_rng_states: dict[str, dict] = {}
    for (source, destination), state in sorted(trainer._edge_states.items()):
        edge_key = f"edge{source}-{destination}"
        if state.residual is not None:
            arrays[f"{edge_key}/residual"] = state.residual
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
        expected = trainer.compressor_spec.label
        recorded = meta.get("compressor", meta.get("selection"))
        if recorded != expected:
            raise ConfigurationError(
                f"checkpoint was taken from a {recorded!r} run but the "
                f"trainer is configured for {expected!r}"
            )
        if meta["n_servers"] != len(trainer.servers):
            raise ConfigurationError(
                f"checkpoint has {meta['n_servers']} servers, trainer has "
                f"{len(trainer.servers)}"
            )
        if meta["n_params"] != trainer.model.n_params:
            raise ConfigurationError(
                f"checkpoint model dimension {meta['n_params']} does not match "
                f"trainer's {trainer.model.n_params}"
            )
        for index, server in enumerate(trainer.servers):
            prefix = f"server{index}"
            state = meta["servers"][index]
            server.params = archive[f"{prefix}/params"].copy()
            if state["has_previous"]:
                server.previous_params = archive[f"{prefix}/previous_params"].copy()
                server._previous_gradient = archive[
                    f"{prefix}/previous_gradient"
                ].copy()
            else:
                server.previous_params = None
                server._previous_gradient = None
            server.views = _load_group(archive, f"{prefix}/views/")
            server.previous_views = _load_group(archive, f"{prefix}/previous_views/")
            server.last_sent = _load_group(archive, f"{prefix}/last_sent/")
            server.fresh = {int(k): v for k, v in state["fresh"].items()}
            server.previous_fresh = {
                int(k): v for k, v in state["previous_fresh"].items()
            }
            server.iteration = int(state["iteration"])
        trainer.rounds_completed = int(meta.get("rounds_completed", 0))
        if trainer._schedules is not None:
            schedule_states = meta.get("schedules")
            if schedule_states is None:
                raise ConfigurationError(
                    "trainer uses APE schedules but the checkpoint has none "
                    f"(it was taken from a '{meta.get('selection')}' run)"
                )
            for schedule, state in zip(trainer._schedules, schedule_states):
                schedule.load_state_dict(state)
        trainer._edge_states.clear()
        for key in archive.files:
            if key.startswith("edge") and key.endswith("/residual"):
                source, _, destination = key[4:-len("/residual")].partition("-")
                state = trainer._edge_state(int(source), int(destination))
                state.residual = archive[key].copy()
        for edge_key, rng_state in meta.get("edge_rng", {}).items():
            source, _, destination = edge_key.partition(",")
            state = trainer._edge_state(int(source), int(destination))
            if state.rng is None:
                raise ConfigurationError(
                    f"checkpoint carries RNG state for edge {edge_key} but the "
                    f"{expected!r} compressor draws no randomness"
                )
            state.rng.bit_generator.state = rng_state


def _load_group(archive, prefix: str) -> dict[int, np.ndarray]:
    group: dict[int, np.ndarray] = {}
    for key in archive.files:
        if key.startswith(prefix):
            neighbor = int(key[len(prefix):])
            group[neighbor] = archive[key].copy()
    return group
