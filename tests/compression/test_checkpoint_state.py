"""Checkpoint / resume carries per-edge compressor state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.checkpoint import restore_checkpoint, save_checkpoint
from repro.exceptions import ConfigurationError

from tests.compression.conftest import make_trainer, run_trace


def resume_trace(spec, tmp_path, engine="reference"):
    first = make_trainer(engine, compressor=spec, max_rounds=12)
    first.run(max_rounds=6, stop_on_convergence=False)
    if hasattr(first.engine, "sync_to_servers"):
        first.engine.sync_to_servers()
    path = save_checkpoint(first, tmp_path / "ck.npz")
    resumed = make_trainer(engine, compressor=spec, max_rounds=12)
    restore_checkpoint(resumed, path)
    first.run(max_rounds=6, stop_on_convergence=False)
    resumed.run(max_rounds=6, stop_on_convergence=False)
    return first, resumed


@pytest.mark.parametrize(
    "spec", ["randomk:k=2", "uniform:bits=4", "terngrad"]
)
def test_resume_is_bit_identical(spec, tmp_path):
    first, resumed = resume_trace(spec, tmp_path)
    for a, b in zip(first.servers, resumed.servers):
        np.testing.assert_array_equal(a.params, b.params)


def test_restoring_into_mismatched_compressor_rejected(tmp_path):
    trainer = make_trainer("reference", compressor="topk:k=3", max_rounds=3)
    trainer.run(stop_on_convergence=False)
    path = save_checkpoint(trainer, tmp_path / "ck.npz")
    other = make_trainer("reference", max_rounds=3)  # ape preset
    with pytest.raises(ConfigurationError, match="topk"):
        restore_checkpoint(other, path)
