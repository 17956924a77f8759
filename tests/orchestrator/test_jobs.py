"""Training jobs: enrollment, tenancy, and per-round membership decisions.

The decision machinery is exercised here against a *fake* runtime (a stub
carrying exactly the trainer surface ``TrainingJob`` reads: topology,
optimized weights, config, byte tracker), so every state transition is
deterministic and socket-free. The real-testbed path is the chaos-marked
end-to-end suite.
"""

from __future__ import annotations

import pytest

from repro.core.config import SNAPConfig
from repro.exceptions import ConfigurationError, OrchestratorError
from repro.orchestrator import JobManager, JobState
from repro.topology.graph import Topology
from repro.weights.optimizer import optimize_weight_matrix


def ring(n: int) -> Topology:
    return Topology(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Topology:
    return Topology(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class FakeTracker:
    def __init__(self):
        self.total_bytes = 0
        self.total_cost = 0

    def stage_bytes(self):
        return {}


class FakeTrainer:
    def __init__(self, topology):
        self.topology = topology
        self._weight_result = optimize_weight_matrix(topology, iterations=60)
        self._topology_controller = None
        self.config = SNAPConfig(optimize_weights=True)
        self.tracker = FakeTracker()
        self.link_staleness = {}


class FakeRuntime:
    def __init__(self, topology, ports=None):
        self.trainer = FakeTrainer(topology)
        self.ports = dict(ports or {})
        self.nodes = ()


@pytest.fixture
def manager(clock):
    return JobManager(heartbeat_s=1.0, evict_after_misses=3, clock=clock)


def enroll_devices(manager, job, count):
    device_ids = []
    for i in range(count):
        response = manager.register_device(f"edge-{i}", job_id=job.job_id)
        device_ids.append(response["device_id"])
    return device_ids


class TestEnrollment:
    def test_enroll_assigns_slot_shard_and_neighbors(self, manager):
        job = manager.create_job("train", capacity=4)
        response = manager.register_device("edge-0", job_id=job.job_id)
        assignment = response["assignment"]
        assert assignment["slot"] == 0
        assert assignment["shard"] == 0
        assert assignment["job_id"] == job.job_id
        assert job.enrolled_devices() == {response["device_id"]: 0}

    def test_enrolling_a_dead_device_rejected(self, manager):
        job = manager.create_job("train", capacity=4)
        record = manager.registry.register("edge-0")
        manager.registry.leave(record.device_id)
        with pytest.raises(OrchestratorError, match="re-register"):
            job.enroll(record.device_id)

    def test_enrolling_into_a_stopped_job_rejected(self, manager):
        job = manager.create_job("train", capacity=4)
        record = manager.registry.register("edge-0")
        job.stop("done")
        with pytest.raises(OrchestratorError, match="stopped"):
            job.enroll(record.device_id)

    def test_job_ids_are_sequential(self, manager):
        assert manager.create_job("a", capacity=2).job_id == "job-0001"
        assert manager.create_job("b", capacity=2).job_id == "job-0002"
        with pytest.raises(OrchestratorError):
            manager.get_job("job-0404")

    def test_bad_bytes_budget_rejected(self, manager):
        with pytest.raises(OrchestratorError):
            manager.create_job("train", capacity=2, bytes_budget=0)


class TestTenancy:
    def test_jobs_share_the_fleet_but_not_slots(self, manager):
        job_a = manager.create_job("a", capacity=4)
        job_b = manager.create_job("b", capacity=4)
        record = manager.registry.register("edge-0")
        # One fleet registration, one enrollment (and slot) per job.
        assert job_a.enroll(record.device_id)["slot"] == 0
        assert job_b.enroll(record.device_id)["slot"] == 0
        other = manager.registry.register("edge-1")
        assert job_a.enroll(other.device_id)["slot"] == 1
        assert len(manager.registry) == 2
        assert job_a.enrolled_devices() != job_b.enrolled_devices()

    def test_leave_withdraws_from_every_enrolled_job(self, manager):
        job_a = manager.create_job("a", capacity=4)
        job_b = manager.create_job("b", capacity=4)
        record = manager.registry.register("edge-0")
        job_a.enroll(record.device_id)
        job_b.enroll(record.device_id)
        response = manager.leave_device(record.device_id)
        assert response["withdrawn_slots"] == {
            job_a.job_id: 0,
            job_b.job_id: 0,
        }
        assert job_a.enrolled_devices() == {}
        assert job_b.enrolled_devices() == {}

    def test_heartbeat_eviction_propagates_to_jobs(self, manager, clock):
        job = manager.create_job("train", capacity=4)
        device_ids = enroll_devices(manager, job, 2)
        manager.registry.heartbeat(device_ids[1])
        clock.advance(10.0)
        manager.registry.heartbeat(device_ids[1])
        evicted = manager.monitor.sweep()
        assert evicted == (device_ids[0],)
        assert job.enrolled_devices() == {device_ids[1]: 1}


class TestBinding:
    def test_bind_requires_matching_capacity(self, manager):
        job = manager.create_job("train", capacity=5)
        with pytest.raises(ConfigurationError, match="capacity"):
            job.bind(FakeRuntime(ring(4)))

    def test_bind_requires_optimized_weights(self, manager):
        job = manager.create_job("train", capacity=4)
        runtime = FakeRuntime(ring(4))
        runtime.trainer._weight_result = None
        with pytest.raises(ConfigurationError, match="optimize_weights"):
            job.bind(runtime)

    def test_double_bind_rejected(self, manager):
        job = manager.create_job("train", capacity=4)
        job.bind(FakeRuntime(ring(4)))
        with pytest.raises(OrchestratorError, match="already bound"):
            job.bind(FakeRuntime(ring(4)))

    def test_bind_publishes_enrolled_ports(self, manager):
        job = manager.create_job("train", capacity=4)
        device_ids = enroll_devices(manager, job, 2)
        job.bind(FakeRuntime(ring(4), ports={0: 40001, 1: 40002}))
        assert job.state is JobState.BOUND
        assert manager.registry.get(device_ids[0]).port == 40001
        assert manager.registry.get(device_ids[1]).port == 40002

    def test_enroll_after_bind_hands_out_the_slot_port(self, manager):
        job = manager.create_job("train", capacity=4)
        job.bind(FakeRuntime(ring(4), ports={0: 40001}))
        response = manager.register_device("edge-0", job_id=job.job_id)
        assert response["assignment"]["port"] == 40001
        assert manager.registry.get(response["device_id"]).port == 40001

    def test_decide_before_bind_rejected(self, manager):
        job = manager.create_job("train", capacity=4)
        with pytest.raises(OrchestratorError, match="not bound"):
            job.decide(1)


class TestDecisions:
    """The per-round membership state machine, on a 4-slot complete graph.

    K4 gives every slot degree 3, so the connectivity guard has room to
    act without blocking the whole prune (a leaver always keeps exactly
    one algorithmic link).
    """

    def bound_job(self, manager, devices=3, capacity=4, **kwargs):
        job = manager.create_job("train", capacity=capacity, **kwargs)
        device_ids = enroll_devices(manager, job, devices)
        runtime = FakeRuntime(complete(capacity))
        job.bind(runtime)
        return job, device_ids, runtime

    def test_bring_up_idles_and_prunes_empty_slots(self, manager):
        job, _, _ = self.bound_job(manager, devices=3)
        decision = job.decide(1)
        assert decision.reason == "bring-up"
        assert decision.active == frozenset({0, 1, 2})
        assert not decision.stop
        # Slot 3's links are forced into the prune, connectivity-guarded:
        # of its three K4 edges exactly one survives (an isolated node
        # would disconnect the graph) and slot 3 is reweighted away at
        # mixing time.
        assert decision.swap is not None
        assert len(decision.swap.pruned_edges) == 2
        assert all(3 in edge for edge in decision.swap.pruned_edges)
        assert job.active_slots() == frozenset({0, 1, 2})

    def test_steady_rounds_are_swap_free(self, manager):
        job, _, _ = self.bound_job(manager, devices=3)
        job.decide(1)
        decision = job.decide(2)
        assert decision.reason == "steady"
        assert decision.swap is None
        assert decision.active == frozenset({0, 1, 2})

    def test_join_reoccupies_the_slot_and_readds_its_links(self, manager):
        job, _, _ = self.bound_job(manager, devices=3)
        pruned = job.decide(1).swap.pruned_edges
        joiner = manager.register_device("edge-late", job_id=job.job_id)
        assert joiner["assignment"]["slot"] == 3
        decision = job.decide(2)
        assert decision.reason == "membership"
        assert decision.active == frozenset({0, 1, 2, 3})
        assert decision.swap is not None
        assert set(decision.swap.added_edges) == set(pruned)

    def test_leave_frees_the_slot_and_drops_its_links(self, manager):
        job, device_ids, _ = self.bound_job(manager, devices=3)
        job.decide(1)
        manager.leave_device(device_ids[2])
        decision = job.decide(2)
        assert decision.reason == "membership"
        assert decision.active == frozenset({0, 1})
        assert decision.swap is not None
        assert decision.swap.pruned_edges  # the leaver sheds links...
        assert all(2 in edge for edge in decision.swap.pruned_edges)
        # ...but the guard leaves it at least one, so the graph stays whole.
        assert decision.swap.topology.is_connected()
        assert len(decision.swap.topology.neighbors(2)) >= 1

    def test_join_and_leave_between_rounds_cancel(self, manager):
        job, _, _ = self.bound_job(manager, devices=3)
        job.decide(1)
        flapper = manager.register_device("edge-flap", job_id=job.job_id)
        manager.leave_device(flapper["device_id"])
        decision = job.decide(2)
        assert decision.reason == "steady"
        assert decision.active == frozenset({0, 1, 2})

    def test_scheduled_callbacks_fire_before_their_round(self, manager):
        job, _, _ = self.bound_job(manager, devices=3)
        fired = []
        job.schedule(2, lambda: fired.append("now"))
        job.decide(1)
        assert fired == []
        job.decide(2)
        assert fired == ["now"]

    def test_bytes_budget_stops_the_run(self, manager):
        job, _, runtime = self.bound_job(manager, devices=3, bytes_budget=100)
        assert not job.decide(1).stop
        runtime.trainer.tracker.total_bytes = 150
        decision = job.decide(2)
        assert decision.stop
        assert decision.reason == "bytes budget exhausted"
        assert job.state is JobState.STOPPED

    def test_api_stop_wins_at_the_next_boundary(self, manager):
        job, _, _ = self.bound_job(manager, devices=3)
        job.decide(1)
        job.stop("operator said so")
        decision = job.decide(2)
        assert decision.stop
        assert decision.reason == "operator said so"

    def test_snapshot_reports_the_decided_state(self, manager):
        job, _, _ = self.bound_job(manager, devices=3)
        job.decide(1)
        snapshot = job.snapshot()
        assert snapshot["state"] == "bound"
        assert snapshot["active_slots"] == [0, 1, 2]
        assert snapshot["rounds_decided"] == 1
        assert snapshot["topology"]["swaps"] == 1
        assert snapshot["bytes"] == {"total": 0, "cost": 0, "stages": {}}
