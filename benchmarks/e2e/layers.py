"""Which public callables of each ``repro`` layer the traced rep wraps.

A layer is a module under ``src/repro``. :func:`install` rebinds the public
entry points listed below (on the owning class, or on the module that
imported the function by name) to span-recording wrappers; the harness
turns the resulting self times and call counts into the per-layer metrics.
All timing is taken from outside: nothing in ``src/repro`` is edited.

Span names are ``<layer>.<what>``; the harness emits each span's self time
and call count as ``<span>_s`` and ``<span>_calls`` (``models.gradient`` →
``models.gradient_s``, ``models.gradient_calls``).
"""

from __future__ import annotations

import repro.core.trainer as trainer_module
import repro.runtime.transport as transport_module
from repro.compression.base import Compressor
from repro.consensus.convergence import ConvergenceDetector
from repro.core.async_engine import SemiSyncEngine
from repro.core.engine import ReferenceEngine, VectorizedEngine
from repro.core.trainer import SNAPTrainer
from repro.faults import FaultPlan
from repro.faults.models import CorruptionModel
from repro.network.cost import CommunicationCostTracker
from repro.orchestrator.jobs import TrainingJob
from repro.runtime.testbed import TestbedRuntime
from repro.runtime.transport import FrameConnection, RetryPolicy
from repro.testing.invariants import InvariantMonitor
from repro.weights.adaptive import TopologyController

from .tracer import Tracer


def _subclasses(cls) -> list[type]:
    found, stack = [cls], [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return found


def _wrap_defined(tracer: Tracer, base: type, attrs, name: str, count=None) -> None:
    """Wrap ``attrs`` on ``base`` and on every subclass that overrides them."""
    for cls in _subclasses(base):
        for attr in attrs:
            if attr in vars(cls):
                tracer.wrap(cls, attr, name, count)


def install_monitor(tracer: Tracer) -> None:
    """The verify rep's only wrapper: time spent in the invariant monitor."""
    tracer.wrap(InvariantMonitor, "on_round", "testing.monitor")


def install(tracer: Tracer, model) -> None:
    """Wrap every layer's public entry points for one traced rep.

    ``model`` is the workload's model instance: the model classes differ
    per workload, so its class is the owner that gets wrapped.
    """
    # weights — the (22)/(23) solve or the Metropolis build, validation,
    # and the online re-solves on churn.
    for attr in (
        "optimize_weight_matrix",
        "metropolis_weights",
        "tiered_metropolis_weights",
        "check_weight_matrix",
    ):
        tracer.wrap(trainer_module, attr, "weights.build")
    for attr in ("propose", "readd_candidates"):
        tracer.wrap(TopologyController, attr, "weights.resolve")

    # consensus
    tracer.wrap(trainer_module, "safe_step_size", "consensus.step_size")
    tracer.wrap(trainer_module, "consensus_error", "consensus.error")
    tracer.wrap(ConvergenceDetector, "observe", "consensus.error")

    # models
    model_class = type(model)
    # Set-up-time model work: shard preparation for the batched kernels and
    # the Lipschitz bound behind the step size (an SVD per shard).
    for attr in ("prepare_shards", "gradient_lipschitz_bound"):
        tracer.wrap(model_class, attr, "models.prepare")
    for attr in ("batch_gradients", "gradient"):
        tracer.wrap(model_class, attr, "models.gradient")
    for attr in ("batch_losses", "loss"):
        tracer.wrap(model_class, attr, "models.loss")
    tracer.wrap(model_class, "predict", "models.predict")

    # core — construction, engine build, and the engine protocol. The
    # ``_self`` spans are the ones whose interesting number is what is left
    # after their children (models, compression, network, faults).
    tracer.wrap(SNAPTrainer, "__init__", "core.build_self")
    tracer.wrap(trainer_module, "build_engine", "core.engine_build")
    tracer.wrap(SNAPTrainer, "run", "core.run")
    for engine in (ReferenceEngine, VectorizedEngine, SemiSyncEngine):
        tracer.wrap(engine, "begin_run", "core.begin_run")
        tracer.wrap(engine, "step_round", "core.step_round_self")
        tracer.wrap(engine, "communicate", "core.communicate_self")
        tracer.wrap(engine, "sync_to_servers", "core.sync_to_servers")

    # compression
    tracer.wrap(trainer_module, "build_compressor", "compression.build")
    _wrap_defined(
        tracer, Compressor, ("begin_round", "end_round"), "compression.compress"
    )
    _wrap_defined(
        tracer, Compressor, ("compress",), "compression.compress",
        count=lambda payload: 1,
    )
    _wrap_defined(
        tracer, Compressor, ("compress_batch",), "compression.compress", count=len
    )

    # network — the byte ledger and the wire codec (as the transport sees it).
    for attr in ("record", "record_many"):
        tracer.wrap(CommunicationCostTracker, attr, "network.ledger")
    tracer.wrap(transport_module, "encode_update", "network.codec_encode")
    tracer.wrap(transport_module, "decode_update", "network.codec_decode")

    # faults — plan queries, with outage / corruption counts.
    tracer.wrap(FaultPlan, "failed_links", "faults.query", count=len)
    for attr in ("failed_nodes", "link_up", "corrupted", "compute_multiplier"):
        tracer.wrap(FaultPlan, attr, "faults.query")
    _wrap_defined(
        tracer, CorruptionModel, ("corrupted",), "faults.corrupted", count=bool
    )

    # runtime — thread-seconds of sending, and of waiting on frames/barriers.
    tracer.wrap(TestbedRuntime, "__init__", "runtime.build")
    tracer.wrap(TestbedRuntime, "run", "runtime.run")
    tracer.wrap(TestbedRuntime, "barrier_wait", "runtime.barrier_wait")
    tracer.wrap(FrameConnection, "send_update", "runtime.send")
    tracer.wrap(FrameConnection, "recv_update", "runtime.recv_wait")
    tracer.wrap(RetryPolicy, "delay_s", "runtime.send_retry")

    # orchestrator — the per-round membership decision, made on a node
    # thread inside the run. (Service start/stop, registration and the
    # metrics scrape are calls the fleet runner makes itself and times
    # directly.)
    tracer.wrap(TrainingJob, "decide", "orchestrator.decide")
