"""The fleet control plane: orchestrated elastic membership over the testbed.

The SNAP paper's edge fleets are dynamic — devices come and go — but a
hand-wired :class:`~repro.runtime.testbed.TestbedRuntime` is a fixed peer
list. This package is the coordinator that makes membership elastic
without giving up the paper's decentralized training loop:

* :class:`DeviceRegistry` — devices register with capabilities, get ids,
  publish their bound (ephemeral) listener ports, and prove liveness;
* :class:`HeartbeatMonitor` — miss-threshold eviction, the fleet-level
  mirror of the testbed's ``dead_after_misses`` link rule;
* :class:`SlotScheduler` — enrollment → slot → data shard + neighbor set,
  inside a fixed slot universe so the consensus dimension never changes;
* :class:`TrainingJob` / :class:`JobManager` — multi-job tenancy: many
  concurrent jobs share one fleet with isolated enrollment, shard maps,
  topology controllers, and bytes budgets; a job is the testbed's
  ``membership``: joins and leaves become warm-started (22)/(23) topology
  re-solves applied at round boundaries (never an abort);
* :class:`OrchestratorService` / :class:`OrchestratorClient` — the stdlib
  HTTP API (register/heartbeat/leave/port/jobs) with a ``/metrics``
  endpoint exporting the columnar cost tracker and staleness counters;
* :func:`run_elastic_fleet` — one-call end-to-end localhost fleet (the
  CLI's ``orchestrate`` command and the CI smoke).

See ``docs/ORCHESTRATOR.md`` for the architecture and an elastic-membership
walkthrough.
"""

from repro.orchestrator.client import HeartbeatSender, OrchestratorClient
from repro.orchestrator.fleet import (
    ElasticFleetReport,
    active_mean_accuracy,
    default_fleet_config,
    run_elastic_fleet,
    run_static_baseline,
)
from repro.orchestrator.heartbeat import (
    DEFAULT_EVICT_AFTER_MISSES,
    DEFAULT_HEARTBEAT_S,
    HeartbeatMonitor,
)
from repro.orchestrator.jobs import JobManager, JobState, TrainingJob
from repro.orchestrator.membership import (  # noqa: F401 - see OrchestratedMembership
    MembershipDecision,
    OrchestratedMembership,
)
from repro.orchestrator.metrics import parse_metrics, render_metrics
from repro.orchestrator.registry import (
    DeviceRecord,
    DeviceRegistry,
    DeviceState,
)
from repro.orchestrator.scheduler import SlotScheduler
from repro.orchestrator.service import OrchestratorService

__all__ = [
    "DeviceRecord",
    "DeviceRegistry",
    "DeviceState",
    "DEFAULT_EVICT_AFTER_MISSES",
    "DEFAULT_HEARTBEAT_S",
    "HeartbeatMonitor",
    "HeartbeatSender",
    "SlotScheduler",
    "MembershipDecision",
    "TrainingJob",
    "JobManager",
    "JobState",
    "OrchestratorService",
    "OrchestratorClient",
    "render_metrics",
    "parse_metrics",
    "ElasticFleetReport",
    "run_elastic_fleet",
    "run_static_baseline",
    "default_fleet_config",
    "active_mean_accuracy",
]
