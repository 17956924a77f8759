"""End-to-end localhost fleets: bring-up, elastic churn, teardown.

:func:`run_elastic_fleet` is the one-call demonstration of the whole
control plane — and the engine behind ``python -m repro orchestrate``,
``make orchestrate-smoke``, and the chaos acceptance test:

1. start an :class:`OrchestratorService` on an ephemeral port;
2. create a training job with a slot universe sized to the workload;
3. register the initial devices over real HTTP (each enrolls, gets a
   slot + shard + neighbor set, and optionally heartbeats on a timer);
4. run a :class:`~repro.runtime.testbed.TestbedRuntime` whose membership
   is orchestrator-issued — scheduled joins and leaves arrive over the
   API mid-run, trigger warm-started topology re-solves, and never abort
   the run;
5. report the result next to a static-fleet baseline accuracy and the
   live /metrics payload for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SNAPConfig, StragglerStrategy
from repro.models.metrics import accuracy_score
from repro.orchestrator.client import HeartbeatSender, OrchestratorClient
from repro.orchestrator.jobs import JobManager
from repro.orchestrator.service import OrchestratorService
from repro.runtime.testbed import TestbedResult, TestbedRuntime
from repro.simulation.experiments import Workload, credit_svm_workload


@dataclass
class ElasticFleetReport:
    """Everything an elastic run produced, for assertions and display."""

    result: TestbedResult
    job_id: str
    device_ids: list[str]
    active_slots: tuple[int, ...]
    final_accuracy: float
    static_accuracy: float | None
    job_status: dict
    metrics_text: str
    swaps: int
    readded_edges: int
    pruned_edges: int
    decisions: list = field(default_factory=list)
    #: The live control-plane objects, for post-run invariant assertions
    #: (the service itself is already torn down by the time this exists).
    job: object | None = None
    runtime: object | None = None

    def summary_lines(self) -> list[str]:
        """Human-readable digest for the CLI."""
        status = self.job_status
        byte_stats = status.get("bytes", {})
        lines = [
            f"job {self.job_id}: {status.get('state')} after "
            f"{self.result.n_rounds} rounds",
            f"  active slots: {sorted(self.active_slots)} "
            f"of {status.get('capacity')}",
            f"  topology swaps: {self.swaps} "
            f"(pruned {self.pruned_edges}, re-added {self.readded_edges})",
            f"  payload bytes: {byte_stats.get('total', 0)}",
            f"  final accuracy: {self.final_accuracy:.4f}",
        ]
        if self.static_accuracy is not None:
            lines.append(f"  static baseline: {self.static_accuracy:.4f}")
        if status.get("stop_reason"):
            lines.append(f"  stop reason: {status['stop_reason']}")
        return lines


def default_fleet_config(seed: int = 0, invariants: str = "strict") -> SNAPConfig:
    """The recommended elastic-run configuration.

    ``REWEIGHT`` is the right straggler strategy for elastic fleets: an
    inactive neighbor's weight folds onto the diagonal instead of mixing
    in an ever-staler cached view, so long absences do not bias the
    consensus (see docs/ORCHESTRATOR.md).
    """
    return SNAPConfig(
        optimize_weights=True,
        straggler_strategy=StragglerStrategy.REWEIGHT,
        invariants=invariants,
        seed=seed,
    )


def active_mean_accuracy(runtime: TestbedRuntime, active, workload: Workload) -> float:
    """Test accuracy of the mean model over the active slots."""
    active = sorted(active)
    if not active:
        return 0.0
    stack = np.stack([runtime.nodes[slot].server.params for slot in active])
    mean_params = stack.mean(axis=0)
    predictions = workload.model.predict(mean_params, workload.test_set.X)
    return float(accuracy_score(workload.test_set.y, predictions))


def run_elastic_fleet(
    n_slots: int = 6,
    initial_devices: int = 5,
    rounds: int = 30,
    join_at: int | None = None,
    leave_at: int | None = None,
    heartbeat_s: float = 0.25,
    evict_after_misses: int = 3,
    bytes_budget: int | None = None,
    seed: int = 0,
    n_train: int = 900,
    n_test: int = 450,
    average_degree: float = 3.0,
    round_deadline_s: float = 2.0,
    workload: Workload | None = None,
    config: SNAPConfig | None = None,
    heartbeats: bool = True,
    static_baseline: bool = True,
    n_jobs: int = 1,
    port: int = 0,
) -> ElasticFleetReport:
    """Run one orchestrated localhost fleet end to end; see module docstring.

    ``join_at`` / ``leave_at`` schedule one device joining (into the first
    free slot) and one leaving (the highest occupied slot) at those round
    boundaries, over the real HTTP API. ``n_jobs > 1`` creates additional
    concurrent jobs on the same fleet (they share the registry but keep
    isolated schedulers and budgets; only the first is run here — tenancy
    isolation of *running* jobs is exercised by the test suite, which runs
    two fleets side by side).
    """
    if not 0 < initial_devices <= n_slots:
        raise ValueError(
            f"initial_devices must be in (0, {n_slots}], got {initial_devices}"
        )
    if workload is None:
        workload = credit_svm_workload(
            n_servers=n_slots,
            average_degree=average_degree,
            n_train=n_train,
            n_test=n_test,
            seed=seed,
        )
    if config is None:
        config = default_fleet_config(seed=seed)

    manager = JobManager(
        heartbeat_s=heartbeat_s, evict_after_misses=evict_after_misses
    )
    service = OrchestratorService(
        manager, port=port, start_monitor=heartbeats
    ).start()
    senders: list[HeartbeatSender] = []
    try:
        client = OrchestratorClient(service.url)
        job = manager.create_job(
            "elastic", capacity=n_slots, bytes_budget=bytes_budget
        )
        for extra in range(1, int(n_jobs)):
            manager.create_job(f"tenant-{extra}", capacity=n_slots)

        device_ids: list[str] = []
        for i in range(initial_devices):
            response = client.register(
                f"edge-{i:02d}",
                capabilities={"cpu_cores": 2, "mem_mb": 512},
                job=job.job_id,
            )
            device_ids.append(response["device_id"])
            if heartbeats:
                senders.append(
                    HeartbeatSender(
                        client, response["device_id"], heartbeat_s
                    ).start()
                )

        if leave_at is not None:
            leaver = device_ids[initial_devices - 1]
            job.schedule(int(leave_at), lambda: client.leave(leaver))
        if join_at is not None:
            def _join():
                response = client.register(
                    "edge-join",
                    capabilities={"cpu_cores": 2, "mem_mb": 512},
                    job=job.job_id,
                )
                device_ids.append(response["device_id"])
                if heartbeats:
                    senders.append(
                        HeartbeatSender(
                            client, response["device_id"], heartbeat_s
                        ).start()
                    )
            job.schedule(int(join_at), _join)

        runtime = TestbedRuntime(
            workload.model,
            workload.shards,
            workload.topology,
            config=config,
            membership=job,
            round_deadline_s=round_deadline_s,
        )
        result = runtime.run(rounds)

        active = tuple(sorted(job.active_slots()))
        final_accuracy = active_mean_accuracy(runtime, active, workload)
        job_status = client.job_status(job.job_id)
        metrics_text = client.metrics()
    finally:
        for sender in senders:
            sender.stop()
        service.stop()

    static_accuracy = None
    if static_baseline:
        static_accuracy = run_static_baseline(workload, config, rounds)

    controller = job.controller
    return ElasticFleetReport(
        result=result,
        job_id=job.job_id,
        device_ids=device_ids,
        active_slots=active,
        final_accuracy=final_accuracy,
        static_accuracy=static_accuracy,
        job_status=job_status,
        metrics_text=metrics_text,
        swaps=len(controller.swaps) if controller is not None else 0,
        readded_edges=(
            sum(len(s.added_edges) for s in controller.swaps)
            if controller is not None
            else 0
        ),
        pruned_edges=(
            sum(len(s.pruned_edges) for s in controller.swaps)
            if controller is not None
            else 0
        ),
        decisions=list(job.decisions),
        job=job,
        runtime=runtime,
    )


def run_static_baseline(
    workload: Workload, config: SNAPConfig, rounds: int
) -> float:
    """Accuracy of the same workload on a static full fleet (simulator).

    A static testbed run is bit-for-bit a simulated run on the same
    inputs (the long-standing integration contract), so the cheap
    simulator is the honest baseline for the elastic-vs-static
    accuracy-gap acceptance check.
    """
    from repro.core.trainer import SNAPTrainer

    trainer = SNAPTrainer(
        workload.model, workload.shards, workload.topology, config=config
    )
    result = trainer.run(
        max_rounds=rounds, test_set=workload.test_set, stop_on_convergence=False
    )
    return float(result.final_accuracy)
