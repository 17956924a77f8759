"""End-to-end elastic fleets over the real TCP testbed (chaos tier).

One orchestrated run is shared by the whole join/leave class: a 6-slot
fleet brought up with 5 devices, one device joining at round 7 and one
leaving at round 12 — both over the live HTTP API — with strict invariant
monitors armed. The acceptance bars from the issue are asserted directly:
the run never aborts, churn triggers warm-started re-solves (including a
link re-add for the joiner), the final accuracy lands within 2 points of a
static-fleet run, and /metrics agrees with the in-process cost tracker.
"""

from __future__ import annotations

import threading

import pytest

from repro.orchestrator import (
    JobManager,
    default_fleet_config,
    run_elastic_fleet,
)
from repro.orchestrator.metrics import parse_metrics, render_metrics
from repro.runtime.testbed import TestbedRuntime
from repro.simulation.experiments import credit_svm_workload

ROUNDS = 20
JOIN_AT = 7
LEAVE_AT = 12


@pytest.fixture(scope="module")
def elastic_report():
    return run_elastic_fleet(
        n_slots=6,
        initial_devices=5,
        rounds=ROUNDS,
        join_at=JOIN_AT,
        leave_at=LEAVE_AT,
        heartbeats=False,  # deterministic: no wall-clock sweeps in the loop
        static_baseline=True,
        seed=0,
        n_train=900,
        n_test=450,
    )


def metric(parsed, name, **labels):
    return parsed[name][frozenset(labels.items())]


@pytest.mark.chaos
class TestElasticJoinLeave:
    def test_churn_never_aborts_the_run(self, elastic_report):
        assert elastic_report.result.n_rounds == ROUNDS
        assert not any(d.stop for d in elastic_report.decisions)
        assert elastic_report.job_status["state"] == "bound"
        assert elastic_report.job_status["stop_reason"] is None

    def test_membership_changes_trigger_warm_resolves(self, elastic_report):
        reasons = [d.reason for d in elastic_report.decisions if d.swap]
        assert reasons[0] == "bring-up"
        assert reasons.count("membership") == 2  # the join and the leave
        assert elastic_report.swaps == 3
        # Every membership re-solve warm-starts from the previous solution.
        assert all(
            swap.solver_steps > 0 for swap in elastic_report.job.controller.swaps
        )
        # default_fleet_config's strict monitor runs on the wire: every
        # round is checked and every swap re-validated.
        checks = elastic_report.runtime.trainer.monitor.checks
        assert (checks["byte-ledger"], checks["topology-swap"]) == (ROUNDS, 3)

    def test_join_readds_previously_pruned_links(self, elastic_report):
        assert elastic_report.readded_edges >= 1
        join_swaps = [
            d.swap
            for d in elastic_report.decisions
            if d.swap is not None and d.swap.added_edges
        ]
        assert join_swaps
        # The joiner occupied the bring-up-idled slot 5.
        assert all(
            5 in edge for swap in join_swaps for edge in swap.added_edges
        )

    def test_final_fleet_shape(self, elastic_report):
        # 5 initial + 1 join - 1 leave (the highest occupied slot, 4).
        assert sorted(elastic_report.active_slots) == [0, 1, 2, 3, 5]
        assert len(elastic_report.device_ids) == 6

    def test_every_layer_agrees_after_the_swaps(self, elastic_report):
        runtime = elastic_report.runtime
        topology = elastic_report.job.controller.topology
        for node in runtime.nodes:
            server = node.server
            assert set(server.neighbors) == set(
                topology.neighbors(server.node_id)
            )
            assert set(server.views) == set(server.neighbors)
            assert set(server.last_sent) == set(server.neighbors)
            # Algorithm links only ever shrink/regrow inside the wired set.
            assert set(server.neighbors) <= set(node.link_peers)

    def test_accuracy_within_two_points_of_static_fleet(self, elastic_report):
        assert elastic_report.static_accuracy is not None
        gap = abs(elastic_report.final_accuracy - elastic_report.static_accuracy)
        assert gap <= 0.02

    def test_metrics_endpoint_matches_the_cost_tracker(self, elastic_report):
        parsed = parse_metrics(elastic_report.metrics_text)
        job_id = elastic_report.job_id
        tracker = elastic_report.runtime.trainer.tracker
        assert metric(parsed, "job_bytes_total", job=job_id) == int(
            tracker.total_bytes
        )
        assert metric(
            parsed, "job_stage_bytes_total", job=job_id, stage="testbed"
        ) == int(tracker.total_bytes)
        assert metric(parsed, "job_topology_swaps", job=job_id) == 3
        assert metric(parsed, "job_active_slots", job=job_id) == 5
        assert (
            metric(parsed, "job_bytes_total", job=job_id)
            == elastic_report.job_status["bytes"]["total"]
        )


@pytest.mark.chaos
class TestConcurrentJobs:
    def test_two_jobs_share_the_fleet_with_isolated_state(self):
        manager = JobManager(heartbeat_s=1.0, evict_after_misses=3)
        job_a = manager.create_job("tenant-a", capacity=4)
        job_b = manager.create_job("tenant-b", capacity=4, bytes_budget=4_000)

        # One fleet: each device registers once and enrolls in both jobs.
        for i in range(4):
            record = manager.registry.register(f"edge-{i:02d}")
            job_a.enroll(record.device_id)
            job_b.enroll(record.device_id)
        assert len(manager.registry) == 4
        assert job_a.enrolled_devices() == job_b.enrolled_devices()

        runtimes = {}
        for job, seed in ((job_a, 0), (job_b, 1)):
            workload = credit_svm_workload(
                n_servers=4,
                average_degree=3.0,
                n_train=240,
                n_test=120,
                seed=seed,
            )
            runtimes[job.job_id] = TestbedRuntime(
                workload.model,
                workload.shards,
                workload.topology,
                config=default_fleet_config(seed=seed),
                membership=job,
                round_deadline_s=5.0,
            )

        results, errors = {}, {}

        def run(job_id):
            try:
                results[job_id] = runtimes[job_id].run(8)
            except Exception as error:  # noqa: BLE001 - reported below
                errors[job_id] = error

        threads = [
            threading.Thread(target=run, args=(job_id,), daemon=True)
            for job_id in runtimes
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == {}
        assert set(results) == {job_a.job_id, job_b.job_id}

        # The unbudgeted tenant runs to completion; the budgeted one stops
        # at the boundary where its own (and only its own) spend crossed.
        assert results[job_a.job_id].n_rounds == 8
        assert job_a.snapshot()["stop_reason"] is None
        assert job_b.snapshot()["stop_reason"] == "bytes budget exhausted"
        assert results[job_b.job_id].n_rounds < 8

        # Byte accounting is per job, and /metrics keeps them apart.
        bytes_a = runtimes[job_a.job_id].trainer.tracker.total_bytes
        bytes_b = runtimes[job_b.job_id].trainer.tracker.total_bytes
        assert bytes_a > bytes_b
        parsed = parse_metrics(render_metrics(manager))
        assert metric(parsed, "job_bytes_total", job=job_a.job_id) == int(bytes_a)
        assert metric(parsed, "job_bytes_total", job=job_b.job_id) == int(bytes_b)
        assert metric(parsed, "job_bytes_budget", job=job_b.job_id) == 4_000
