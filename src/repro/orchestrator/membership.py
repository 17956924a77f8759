"""The membership decision: orchestrator decisions → testbed round boundaries.

:class:`~repro.runtime.testbed.TestbedRuntime` accepts a duck-typed
``membership`` object with two methods — ``bind(runtime)`` at construction
and ``decide(round_index)`` once per round. A
:class:`~repro.orchestrator.jobs.TrainingJob` is one; this module holds
the decision record it returns, so the runtime imports nothing from the
orchestrator (the control plane depends on the runtime, not the other way
around).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MembershipDecision:
    """What the fleet looks like for one round.

    Attributes
    ----------
    round_index:
        The round this decision governs.
    active:
        Slot ids participating this round; every other slot idles exactly
        like a plan-downed server (no step, no traffic, NaN loss).
    swap:
        Optional :class:`~repro.weights.adaptive.TopologySwap` to apply at
        the boundary — the warm-started (22)/(23) re-solve triggered by a
        join or leave since the previous round.
    stop:
        End the run cleanly before this round executes (bytes budget
        exhausted, or the job was stopped through the API).
    reason:
        Human-readable trigger, for logs and job status.
    """

    round_index: int
    active: frozenset
    swap: object | None = None
    stop: bool = False
    reason: str = "steady"


def OrchestratedMembership(job):  # noqa: N802 - benchmarks/e2e/harness.py's name
    """``job`` itself: a :class:`TrainingJob` is the testbed's membership."""
    return job
