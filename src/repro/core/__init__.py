"""SNAP — Select Neighbors And Parameters (the paper's core contribution).

The trainer wires everything together: each :class:`~repro.core.server.EdgeServer`
holds a model replica and a private data shard, runs the EXTRA update (8)
against possibly-stale cached neighbor views, and each round transmits only
the parameters whose change exceeds the APE-derived threshold of Algorithm 1,
encoded in the cheaper of the two Fig. 3 frame formats.

Three ``SNAPConfig.compressor`` presets cover the paper's scheme family:

* ``ape`` — full SNAP (threshold from the APE schedule);
* ``changed_only`` — SNAP-0 (threshold zero: every *changed* parameter is
  sent, exactly-unchanged ones are suppressed);
* ``dense`` — SNO (every parameter is sent every round, no index overhead).

Beyond the presets, ``SNAPConfig(compressor=...)`` accepts any
:class:`~repro.compression.CompressorSpec` (Top-k, Random-k, uniform
quantization, TernGrad) — see
``repro.compression`` and ``docs/COMPRESSION.md``.
"""

from repro.core.config import (
    SNAPConfig,
    ShardWeighting,
    StragglerStrategy,
)
from repro.core.ape import APESchedule
from repro.core.checkpoint import restore_checkpoint, save_checkpoint
from repro.core.engine import ReferenceEngine, VectorizedEngine, build_engine
from repro.core.selection import select_parameters
from repro.core.server import EdgeServer
from repro.core.trainer import SNAPTrainer

__all__ = [
    "SNAPConfig",
    "ShardWeighting",
    "StragglerStrategy",
    "APESchedule",
    "restore_checkpoint",
    "save_checkpoint",
    "ReferenceEngine",
    "VectorizedEngine",
    "build_engine",
    "select_parameters",
    "EdgeServer",
    "SNAPTrainer",
]
