"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to discriminate between configuration mistakes, infeasible
optimization problems, and simulation-time faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """An invalid configuration value or combination was supplied."""


class TopologyError(ReproError):
    """A graph/topology operation failed (disconnected, bad degree, ...)."""


class WeightMatrixError(ReproError):
    """A weight matrix violated its structural constraints.

    Raised when a matrix is not symmetric, not doubly stochastic, or does not
    respect the sparsity pattern imposed by the neighbor sets.
    """


class OptimizationError(ReproError):
    """A numerical optimization (weight-matrix solver) failed to make progress."""


class ConvergenceError(ReproError):
    """A training run failed to converge within its iteration budget."""


class ProtocolError(ReproError):
    """A network frame or message could not be encoded or decoded."""


class FrameCorruptionError(ProtocolError):
    """A received frame failed its CRC32 integrity check.

    The stream itself stays aligned (the header's length field framed the
    payload correctly), so the receiver can keep reading subsequent frames;
    the corrupted update is discarded and the straggler rule applies.
    """

    def __init__(self, message: str, sender: int | None = None,
                 round_index: int | None = None):
        super().__init__(message)
        self.sender = sender
        self.round_index = round_index


class DataError(ReproError):
    """A dataset or partition request was invalid.

    ``shard`` is the index of the offending shard when a check over a list
    of shards raised it, else ``None``.
    """

    def __init__(self, message: str, shard: int | None = None):
        super().__init__(message)
        self.shard = shard


class OrchestratorError(ReproError):
    """A fleet control-plane operation failed.

    Raised by :mod:`repro.orchestrator` for registry misuse (unknown device
    ids, double registration), scheduler exhaustion (no free slot in the
    fleet), and job-state violations (enrolling into a stopped job).
    """


class InvariantViolation(ReproError):
    """A runtime invariant monitor caught a violated paper contract.

    Raised by :class:`repro.testing.InvariantMonitor` (enabled via
    ``SNAPConfig(invariants="strict")``) when a live run breaks one of the
    machine-checkable guarantees the paper claims — weight-matrix
    stochasticity/spectrum, the Algorithm 1 APE budget, analytic frame-byte
    conservation, the error-feedback identity, or the consensus envelope.
    The violated invariant's name and the offending round ride on the
    exception for programmatic triage.
    """

    def __init__(
        self,
        message: str,
        invariant: str | None = None,
        round_index: int | None = None,
    ):
        super().__init__(message)
        self.invariant = invariant
        self.round_index = round_index
