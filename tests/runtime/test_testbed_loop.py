"""The testbed's event loop: nothing blocks, nothing leaks, order is the loop's."""

import dataclasses
import gc
import socket
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core import SNAPConfig, SNAPTrainer
from repro.core.server import EdgeServer
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.faults import FaultPlan, ScheduledCorruption
from repro.models.ridge import RidgeRegression
from repro.runtime.testbed import TestbedRuntime
from repro.runtime.transport import FrameConnection, RetryPolicy
from repro.topology.failures import ScheduledFailures
from repro.topology.generators import complete_topology, ring_topology
from repro.weights.construction import metropolis_weights


def ridge_inputs(rng, n_servers, n_params, n_samples, topology):
    X = rng.normal(size=(n_samples, n_params))
    y = X @ rng.normal(size=n_params) + 0.1 * rng.normal(size=n_samples)
    shards = iid_partition(Dataset(X, y), n_servers, seed=0)
    model = RidgeRegression(n_params, regularization=0.1)
    return model, shards, topology, metropolis_weights(topology)


def every_socket(testbed):
    for node in testbed.nodes:
        yield node.listener
        for connection in (*node.send_connections.values(), *node.recv_connections):
            yield connection.sock


class TestNothingIsLeftBehind:
    """A finished runtime is freed by refcount: no cycle, no thread, no fd."""

    @pytest.fixture
    def no_gc(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    def test_freed_by_refcount_with_every_socket_closed(self, rng, no_gc):
        model, shards, topo, weights = ridge_inputs(rng, 3, 3, 120, complete_topology(3))
        threads_before = threading.active_count()
        testbed = TestbedRuntime(
            model, shards, topo, config=SNAPConfig(seed=0), weight_matrix=weights
        )
        result = testbed.run(3)
        assert result.n_rounds == 3
        assert threading.active_count() == threads_before
        sockets = list(every_socket(testbed))
        # 3 listeners, 6 directed links with two ends each.
        assert len(sockets) == 15
        assert {sock.fileno() for sock in sockets} == {-1}
        alive = weakref.ref(testbed)
        del testbed
        assert alive() is None

    def test_sockets_are_closed_when_run_raises(self, rng, monkeypatch):
        model, shards, topo, weights = ridge_inputs(rng, 3, 3, 120, complete_topology(3))
        testbed = TestbedRuntime(model, shards, topo, weight_matrix=weights)
        threads_before = threading.active_count()

        def broken_wire(source, neighbor, message, stage):
            raise RuntimeError("wire fell over")

        monkeypatch.setattr(testbed.nodes[1], "_transmit", broken_wire, raising=True)
        with pytest.raises(RuntimeError, match="wire fell over"):
            testbed.run(3)
        sockets = list(every_socket(testbed))
        assert len(sockets) == 15
        assert {sock.fileno() for sock in sockets} == {-1}
        assert threading.active_count() == threads_before


def test_a_full_kernel_buffer_cannot_wedge_the_loop(rng, monkeypatch):
    """Frames far larger than the socket buffers: a blocking ``sendall`` would
    deadlock the one thread that also has to read them. The out-buffer and
    EVENT_WRITE carry them through, bit-equal to the simulator."""
    # 160 kB dense frames through 32 kB socket buffers. (Not smaller: below a
    # few kB the kernel's own zero-window timers take seconds per frame.)
    n_params = 20_000
    model, shards, topo, weights = ridge_inputs(
        rng, 3, n_params, 12, complete_topology(3)
    )
    configure = FrameConnection._configure

    def small_buffers(sock):
        configure(sock)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 32768)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32768)

    monkeypatch.setattr(FrameConnection, "_configure", staticmethod(small_buffers))
    flush = FrameConnection.flush
    left_queued = []

    def counting_flush(self):
        flush(self)
        if self.outbox:
            left_queued.append(self.peer)

    monkeypatch.setattr(FrameConnection, "flush", counting_flush)

    def config():
        return SNAPConfig(compressor="dense", alpha=0.01, seed=0)

    init = model.init_params(seed=1)
    simulated = SNAPTrainer(
        model, shards, topo, config=config(), weight_matrix=weights,
        initial_params=init,
    )
    sim_result = simulated.run(max_rounds=3, stop_on_convergence=False)
    testbed = TestbedRuntime(
        model, shards, topo, config=config(), weight_matrix=weights,
        initial_params=init, timeout_s=20.0,
    )
    net_result = testbed.run(3)

    assert left_queued  # the kernel really did refuse bytes
    np.testing.assert_array_equal(net_result.final_params, simulated.stacked_params())
    assert net_result.per_round_payload_bytes == sim_result.bytes_trace()
    assert net_result.per_round_payload_bytes[0] > 6 * 8 * n_params


def test_delivery_order_is_a_function_of_the_loop(rng, monkeypatch):
    """Two runs of one seeded plan apply frames in the same per-node order and
    return equal results — no OS scheduler in between."""
    model, shards, topo, weights = ridge_inputs(rng, 4, 3, 160, complete_topology(4))
    init = model.init_params(seed=1)
    applied = []
    receive = EdgeServer.receive_update

    def recording_receive(self, update):
        applied.append((update.round_index, self.node_id, update.sender))
        return receive(self, update)

    monkeypatch.setattr(EdgeServer, "receive_update", recording_receive)

    def run_once():
        applied.clear()
        plan = FaultPlan(
            links=ScheduledFailures({2: [(0, 1)], 3: [(0, 1), (2, 3)], 6: [(1, 3)]}),
            corruption=ScheduledCorruption({4: [(0, 2)], 5: [(3, 1), (1, 0)]}),
        )
        testbed = TestbedRuntime(
            model, shards, topo,
            config=SNAPConfig(
                compressor="changed_only", alpha=0.05, seed=0
            ),
            weight_matrix=weights, initial_params=init, fault_plan=plan,
            round_deadline_s=5.0,
        )
        return testbed.run(8), list(applied)

    first, first_order = run_once()
    second, second_order = run_once()

    assert first_order == second_order
    # (round, receiver, sender) ascending: the loop's order, not arrival order.
    assert first_order == sorted(first_order)
    # 12 directed links x 8 rounds, minus 4 x 2 cut, minus 3 corrupted.
    assert len(first_order) == 12 * 8 - 8 - 3
    assert first.corrupt_frames_total == 3
    for field in dataclasses.fields(first):
        np.testing.assert_equal(
            getattr(first, field.name), getattr(second, field.name)
        )


def test_retry_backoff_is_a_due_time_not_a_sleep(rng, monkeypatch):
    """The kill-one-server chaos run with ``time.sleep`` forbidden: sends to
    the dead peer walk the RetryPolicy schedule by due time (here: zero
    back-off, so by count) until the peer is written off, and no survivor
    ever stalls behind another link's retry."""
    n_servers, rounds, victim, crash_round = 5, 8, 4, 3
    model, shards, topo, _ = ridge_inputs(rng, n_servers, 3, 200, ring_topology(5))

    def no_sleep(seconds):
        raise AssertionError(f"time.sleep({seconds}) on the loop thread")

    monkeypatch.setattr(time, "sleep", no_sleep)
    delays = []
    delay_s = RetryPolicy.delay_s

    def counting_delay(self, attempt, rng):
        delays.append(attempt)
        return delay_s(self, attempt, rng)

    monkeypatch.setattr(RetryPolicy, "delay_s", counting_delay)
    testbed = TestbedRuntime(
        model, shards, topo,
        config=SNAPConfig(compressor="changed_only", alpha=0.05, seed=0),
        round_deadline_s=3.0,
        crash_schedule={crash_round: [victim]},
        retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0, backoff_max_s=0.0),
    )
    result = testbed.run(rounds)

    assert result.n_rounds == rounds
    assert result.dead_nodes == {victim}
    assert len(testbed.nodes[victim].loss_trace) == crash_round - 1
    for neighbor in topo.neighbors(victim):
        # EOF on the inbound link, and exhausted retries on the outbound one.
        assert victim in testbed.nodes[neighbor].dead_peers
        assert result.link_staleness[(victim, neighbor)] >= rounds - crash_round
    # Every exhaustion walked attempts 1, 2 of 3 before giving up, on both
    # of the victim's neighbors, at least once.
    assert delays.count(1) >= 2 and delays.count(1) == delays.count(2)
    assert set(delays) == {1, 2}
    assert result.mean_loss_trace[-1] < result.mean_loss_trace[0]
