"""Training jobs and multi-job tenancy.

A :class:`TrainingJob` is one training run's control-plane state: its own
slot scheduler (enrollment → slot → shard/neighbors), its own topology
controller (so joins and leaves trigger warm-started (22)/(23) re-solves
scoped to this job), its own bytes budget, and a binding to the
:class:`~repro.runtime.testbed.TestbedRuntime` executing it. A
:class:`JobManager` owns the fleet-level singletons — one device registry,
one heartbeat monitor — and any number of concurrent jobs sharing that
fleet: a device registers once, then enrolls per job, and each job's
registry view, shard assignment, and byte accounting are fully isolated.

Membership changes never abort a run. They queue on the job and are
drained at the next round boundary by :meth:`TrainingJob.decide`, which
the runtime calls exactly once per round: the job is the runtime's
``membership`` (:meth:`TrainingJob.bind` attaches it):

* a **leave** (graceful ``/leave`` or heartbeat eviction) frees the slot
  and forces its algorithmic links into the prune step (connectivity
  guarded — the slot keeps one link and is reweighted away at mixing);
* a **join** occupies a free slot and offers that slot's previously
  pruned base-topology links as re-add candidates, with both link ends
  re-seeded so the swap is exact;
* the **bytes budget** stops the run cleanly once the job's recorded
  traffic crosses it.
"""

from __future__ import annotations

import threading
import time
from enum import Enum

from repro.exceptions import ConfigurationError, OrchestratorError
from repro.orchestrator.heartbeat import (
    DEFAULT_EVICT_AFTER_MISSES,
    DEFAULT_HEARTBEAT_S,
    HeartbeatMonitor,
)
from repro.orchestrator.membership import MembershipDecision
from repro.orchestrator.registry import DeviceRegistry
from repro.orchestrator.scheduler import SlotScheduler
from repro.weights.adaptive import TopologyController


class JobState(Enum):
    CREATED = "created"
    BOUND = "bound"
    STOPPED = "stopped"


class TrainingJob:
    """Control-plane state of one training run over the shared fleet.

    Parameters
    ----------
    job_id, name:
        Identity (ids are manager-assigned, names are caller-chosen).
    capacity:
        Slot-universe size — must match the bound runtime's topology.
    registry:
        The *shared* fleet registry (enrollment validates against it).
    bytes_budget:
        Optional cap on this job's recorded payload bytes; crossing it
        stops the run at the next round boundary.
    """

    def __init__(
        self,
        job_id: str,
        name: str,
        capacity: int,
        registry: DeviceRegistry,
        bytes_budget: int | None = None,
    ):
        if bytes_budget is not None and bytes_budget <= 0:
            raise OrchestratorError(
                f"bytes_budget must be > 0, got {bytes_budget}"
            )
        self.job_id = job_id
        self.name = str(name)
        self.registry = registry
        self.scheduler = SlotScheduler(capacity)
        self.bytes_budget = bytes_budget
        self.state = JobState.CREATED
        self._lock = threading.Lock()
        self._runtime = None
        self._controller: TopologyController | None = None
        #: Slots decided into the fleet (post-``decide`` view).
        self._active: set[int] = set()
        #: Slots enrolled/withdrawn since the last decision.
        self._pending_joins: set[int] = set()
        self._pending_leaves: set[int] = set()
        self._decided_rounds = 0
        self._stop_reason: str | None = None
        #: ``{round_index: [callbacks]}`` — deterministic mid-run events
        #: (the chaos tests and the smoke CLI schedule joins/leaves here).
        self._scheduled: dict[int, list] = {}
        self.decisions: list[MembershipDecision] = []

    # -- enrollment --------------------------------------------------------

    def enroll(self, device_id: str) -> dict:
        """Admit a registered device into this job; returns its assignment.

        The returned dict is what the HTTP API hands back on register:
        the slot, the shard index, and the slot's physical neighbor set.
        The activation itself happens at the next round boundary.
        """
        record = self.registry.get(device_id)
        if not record.live:
            raise OrchestratorError(
                f"device {device_id!r} is {record.state.value}; re-register "
                "before enrolling"
            )
        if self.state is JobState.STOPPED:
            raise OrchestratorError(f"job {self.job_id} is stopped")
        slot = self.scheduler.assign(device_id)
        with self._lock:
            self._pending_joins.add(slot)
            self._pending_leaves.discard(slot)
        port = None
        if self._runtime is not None:
            port = self._runtime.ports.get(slot)
            if port is not None:
                self.registry.publish_port(device_id, port)
        return {
            "job_id": self.job_id,
            "device_id": device_id,
            "slot": slot,
            "shard": self.scheduler.shard_for(slot),
            "neighbors": list(self.scheduler.neighbor_set(slot)),
            "port": port,
        }

    def withdraw(self, device_id: str) -> int:
        """Remove a device from this job (leave or eviction); returns slot."""
        slot = self.scheduler.release(device_id)
        with self._lock:
            if slot in self._pending_joins and slot not in self._active:
                # Enrolled and gone again between two rounds: never joined.
                self._pending_joins.discard(slot)
            else:
                self._pending_joins.discard(slot)
                self._pending_leaves.add(slot)
        return slot

    def on_evictions(self, device_ids: tuple) -> tuple:
        """Heartbeat-monitor hook: withdraw any enrolled evicted devices."""
        withdrawn = []
        assignments = self.scheduler.assignments()
        for device_id in device_ids:
            if device_id in assignments:
                self.withdraw(device_id)
                withdrawn.append(device_id)
        return tuple(withdrawn)

    def enrolled_devices(self) -> dict:
        """``{device_id: slot}`` snapshot of this job's enrollment."""
        return self.scheduler.assignments()

    # -- runtime binding ---------------------------------------------------

    def bind(self, runtime) -> None:
        """Attach the executing testbed runtime (called by its constructor).

        Reuses the trainer's topology controller, or builds one from the
        trainer's optimized weight solution and config; republishes every
        enrolled device's bound ephemeral port through the registry, and
        arms membership decisions.
        """
        trainer = runtime.trainer
        if trainer.topology.n_nodes != self.scheduler.capacity:
            raise ConfigurationError(
                f"job {self.job_id} has capacity {self.scheduler.capacity} "
                f"but the runtime topology has {trainer.topology.n_nodes} nodes"
            )
        if trainer._weight_result is None:
            raise ConfigurationError(
                "orchestrated membership requires optimize_weights=True: "
                "elastic joins/leaves re-solve the Section IV-B problem online"
            )
        with self._lock:
            if self._runtime is not None:
                raise OrchestratorError(
                    f"job {self.job_id} is already bound to a runtime"
                )
            self._runtime = runtime
            self.scheduler.base_topology = trainer.topology
            controller = trainer._topology_controller
            if controller is None:
                controller = TopologyController(
                    trainer.topology, trainer._weight_result, trainer.config
                )
            self._controller = controller
            self.state = JobState.BOUND
        for device_id, slot in self.scheduler.assignments().items():
            port = runtime.ports.get(slot)
            if port is not None:
                self.registry.publish_port(device_id, port)

    @property
    def controller(self) -> TopologyController | None:
        return self._controller

    @property
    def runtime(self):
        return self._runtime

    # -- mid-run orchestration --------------------------------------------

    def schedule(self, round_index: int, callback) -> None:
        """Run ``callback()`` right before deciding ``round_index``.

        The deterministic way to script mid-run churn: callbacks run on
        the runtime's loop thread *outside* the job lock, so they are free
        to go through the HTTP API (register/enroll/leave) like any
        external device would.
        """
        with self._lock:
            self._scheduled.setdefault(int(round_index), []).append(callback)

    def stop(self, reason: str = "stopped via API") -> None:
        """Stop the run at the next round boundary."""
        with self._lock:
            self._stop_reason = reason
            self.state = JobState.STOPPED

    # -- the per-round decision -------------------------------------------

    def decide(self, round_index: int) -> MembershipDecision:
        """Resolve this round's membership (runtime calls this once/round)."""
        with self._lock:
            due = self._scheduled.pop(round_index, [])
        for callback in due:
            callback()

        runtime = self._runtime
        if runtime is None:
            raise OrchestratorError(
                f"job {self.job_id} is not bound to a runtime"
            )
        with self._lock:
            controller = self._controller
            first = self._decided_rounds == 0
            joined = frozenset(self._pending_joins)
            left = frozenset(self._pending_leaves)
            self._pending_joins.clear()
            self._pending_leaves.clear()

            active = (self._active | joined) - left
            reason = "steady"
            drop_candidates: tuple = ()
            add_candidates: tuple = ()
            if first:
                # Bring-up: the base topology spans every slot; slots with
                # no device yet are idled and their links force-pruned.
                idle = frozenset(range(self.scheduler.capacity)) - active
                drop_candidates = self.scheduler.drop_candidates(
                    controller.topology, idle
                )
                reason = "bring-up"
            elif joined or left:
                drop_candidates = self.scheduler.drop_candidates(
                    controller.topology, left
                )
                add_candidates = controller.readd_candidates(joined)
                reason = "membership"

            swap = None
            if drop_candidates or add_candidates:
                swap = controller.propose(
                    round_index,
                    bytes_spent=runtime.trainer.tracker.total_bytes,
                    rounds_done=self._decided_rounds,
                    reason="membership",
                    drop_candidates=drop_candidates,
                    add_candidates=add_candidates,
                )

            stop = False
            if self._stop_reason is not None:
                stop, reason = True, self._stop_reason
            elif (
                self.bytes_budget is not None
                and runtime.trainer.tracker.total_bytes >= self.bytes_budget
            ):
                stop, reason = True, "bytes budget exhausted"
                self._stop_reason = reason
                self.state = JobState.STOPPED

            self._active = set(active)
            self._decided_rounds += 1
            decision = MembershipDecision(
                round_index=round_index,
                active=active,
                swap=swap,
                stop=stop,
                reason=reason,
            )
            self.decisions.append(decision)
            return decision

    # -- observability -----------------------------------------------------

    def active_slots(self) -> frozenset:
        with self._lock:
            return frozenset(self._active)

    def snapshot(self) -> dict:
        """JSON-safe job status for the HTTP API and /metrics."""
        runtime = self._runtime
        controller = self._controller
        with self._lock:
            status = {
                "job_id": self.job_id,
                "name": self.name,
                "state": self.state.value,
                "capacity": self.scheduler.capacity,
                "active_slots": sorted(self._active),
                "assignments": self.scheduler.assignments(),
                "rounds_decided": self._decided_rounds,
                "bytes_budget": self.bytes_budget,
                "stop_reason": self._stop_reason,
            }
        if controller is not None:
            status["topology"] = controller.summary()
        if runtime is not None:
            tracker = runtime.trainer.tracker
            status["bytes"] = {
                "total": int(tracker.total_bytes),
                "cost": int(tracker.total_cost),
                "stages": {
                    k: int(v) for k, v in tracker.stage_bytes().items()
                },
            }
            status["staleness"] = {
                "link_staleness_total": int(
                    sum(runtime.trainer.link_staleness.values())
                ),
                "stale_view_rounds_total": int(
                    sum(
                        sum(node.stale_view_rounds.values())
                        for node in runtime.nodes
                    )
                ),
            }
            status["ports"] = runtime.ports
        return status


class JobManager:
    """The fleet: one registry, one heartbeat monitor, many jobs.

    Parameters
    ----------
    heartbeat_s / evict_after_misses:
        Fleet-wide heartbeat policy (see :class:`HeartbeatMonitor`).
    clock:
        Injectable time source shared by the registry and the monitor.
    """

    def __init__(
        self,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        evict_after_misses: int = DEFAULT_EVICT_AFTER_MISSES,
        clock=time.monotonic,
    ):
        self.registry = DeviceRegistry(clock=clock)
        self.monitor = HeartbeatMonitor(
            self.registry,
            interval_s=heartbeat_s,
            evict_after_misses=evict_after_misses,
            clock=clock,
        )
        self.monitor.add_listener(self._on_evictions)
        self._lock = threading.Lock()
        self._jobs: dict[str, TrainingJob] = {}
        self._counter = 0

    def create_job(
        self,
        name: str,
        capacity: int,
        bytes_budget: int | None = None,
    ) -> TrainingJob:
        with self._lock:
            self._counter += 1
            job_id = f"job-{self._counter:04d}"
            job = TrainingJob(
                job_id,
                name,
                capacity,
                registry=self.registry,
                bytes_budget=bytes_budget,
            )
            self._jobs[job_id] = job
            return job

    def get_job(self, job_id: str) -> TrainingJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise OrchestratorError(f"unknown job: {job_id!r}")
        return job

    def jobs(self) -> tuple[TrainingJob, ...]:
        with self._lock:
            return tuple(self._jobs.values())

    def register_device(
        self,
        name: str,
        capabilities: dict | None = None,
        job_id: str | None = None,
        port: int | None = None,
    ) -> dict:
        """Fleet registration, optionally enrolling into a job in one call."""
        record = self.registry.register(name, capabilities=capabilities, port=port)
        response = {
            "device_id": record.device_id,
            "state": record.state.value,
            "heartbeat_s": self.monitor.interval_s,
            "evict_after_misses": self.monitor.evict_after_misses,
        }
        if job_id is not None:
            response["assignment"] = self.get_job(job_id).enroll(
                record.device_id
            )
        return response

    def leave_device(self, device_id: str) -> dict:
        """Graceful fleet departure: withdraw from every enrolled job."""
        record = self.registry.leave(device_id)
        withdrawn = {}
        for job in self.jobs():
            if device_id in job.enrolled_devices():
                withdrawn[job.job_id] = job.withdraw(device_id)
        return {"device_id": device_id, "state": record.state.value,
                "withdrawn_slots": withdrawn}

    def _on_evictions(self, device_ids: tuple) -> None:
        for job in self.jobs():
            job.on_evictions(device_ids)

    def snapshot(self) -> dict:
        return {
            "fleet": self.registry.snapshot(),
            "heartbeat": {
                "interval_s": self.monitor.interval_s,
                "evict_after_misses": self.monitor.evict_after_misses,
                "sweeps": self.monitor.sweeps,
                "evictions_total": self.monitor.evictions_total,
            },
            "jobs": [job.snapshot() for job in self.jobs()],
        }
