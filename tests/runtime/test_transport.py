"""Tests for repro.runtime.transport over real localhost sockets."""

import queue
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.exceptions import FrameCorruptionError, ProtocolError
from repro.network.messages import ParameterUpdate
from repro.runtime.transport import HEADER_BYTES, FrameConnection, RetryPolicy


@pytest.fixture
def socket_pair():
    """A connected (client, server) socket pair on localhost."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    client = socket.create_connection(("127.0.0.1", port))
    server, _ = listener.accept()
    listener.close()
    yield FrameConnection(client), FrameConnection(server)
    client.close()
    server.close()


def make_update(total=30, n_sent=7, seed=0, sender=2, round_index=5):
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(total, size=n_sent, replace=False))
    return ParameterUpdate(
        sender=sender,
        round_index=round_index,
        total_params=total,
        indices=indices.astype(np.int64),
        values=rng.normal(size=n_sent),
    )


class TestFrameConnection:
    def test_round_trip_over_a_real_socket(self, socket_pair):
        client, server = socket_pair
        update = make_update()
        client.send_update(update)
        received = server.recv_update()
        assert received.sender == update.sender
        assert received.round_index == update.round_index
        np.testing.assert_array_equal(received.indices, update.indices)
        np.testing.assert_array_equal(received.values, update.values)

    def test_payload_byte_count_matches_accounting(self, socket_pair):
        client, _ = socket_pair
        update = make_update()
        assert client.send_update(update) == update.size_bytes

    def test_multiple_frames_stream_in_order(self, socket_pair):
        client, server = socket_pair
        updates = [make_update(seed=s, round_index=s) for s in range(5)]
        for update in updates:
            client.send_update(update)
        for update in updates:
            received = server.recv_update()
            assert received.round_index == update.round_index

    def test_both_frame_formats_cross_the_wire(self, socket_pair):
        client, server = socket_pair
        dense = ParameterUpdate.dense(0, 1, np.arange(6.0))  # UNCHANGED_INDEX
        sparse = make_update(total=40, n_sent=2)  # INDEX_VALUE
        client.send_update(dense)
        client.send_update(sparse)
        first = server.recv_update()
        second = server.recv_update()
        np.testing.assert_array_equal(first.values, np.arange(6.0))
        assert second.n_sent == 2

    def test_closed_connection_raises_protocol_error(self, socket_pair):
        client, server = socket_pair
        client.close()
        with pytest.raises(ProtocolError):
            server.recv_update()

    def test_header_size_constant(self):
        assert HEADER_BYTES == 21  # 4 + 4 + 1 + 4 + 4 + 4 (CRC32)


class TestIntegrity:
    def test_corrupted_frame_raises_with_sender_and_round(self, socket_pair):
        client, server = socket_pair
        update = make_update(sender=2, round_index=5)
        client.send_corrupted(update)
        with pytest.raises(FrameCorruptionError) as excinfo:
            server.recv_update()
        assert excinfo.value.sender == 2
        assert excinfo.value.round_index == 5
        assert "CRC32" in str(excinfo.value)

    def test_stream_stays_aligned_after_corruption(self, socket_pair):
        """The length field frames the payload even when the CRC is wrong,
        so the frame after a corrupted one decodes normally."""
        client, server = socket_pair
        client.send_corrupted(make_update(round_index=1))
        good = make_update(round_index=2)
        client.send_update(good)
        with pytest.raises(FrameCorruptionError):
            server.recv_update()
        received = server.recv_update()
        assert received.round_index == 2
        np.testing.assert_array_equal(received.values, good.values)

    def test_corrupted_send_costs_the_same_bytes(self, socket_pair):
        client, _ = socket_pair
        update = make_update()
        assert client.send_corrupted(update) == update.size_bytes

    def test_corruption_error_is_a_protocol_error(self):
        assert issubclass(FrameCorruptionError, ProtocolError)


class TestDeadlinesAndErrors:
    def test_mid_frame_eof_names_peer_and_missing_bytes(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = socket.create_connection(("127.0.0.1", listener.getsockname()[1]))
        server_sock, _ = listener.accept()
        listener.close()
        connection = FrameConnection(server_sock, peer="server 7")
        client.sendall(b"\x00" * 5)  # a fragment of the 21-byte header
        client.close()
        with pytest.raises(ProtocolError, match=r"server 7.*mid-frame.*16 of 20"):
            connection.recv_update()
        connection.close()

    def test_idle_timeout_returns_none(self, socket_pair):
        _, server = socket_pair
        assert server.recv_update(idle_timeout_s=0.05) is None

    def test_frame_timeout_is_absolute_not_per_chunk(self):
        """A sender that trickles bytes slowly cannot keep a frame alive
        forever: the deadline starts at the frame's first byte and is never
        reset by partial progress."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = socket.create_connection(("127.0.0.1", listener.getsockname()[1]))
        server_sock, _ = listener.accept()
        listener.close()
        connection = FrameConnection(
            server_sock, peer="server 4", frame_timeout_s=0.25
        )
        # A well-formed header announcing a 64-byte INDEX_VALUE payload...
        header = struct.pack(">IIBIII", 1, 2, 1, 30, 64, 0)
        stop = threading.Event()

        def trickle():
            client.sendall(header)
            for _ in range(64):
                if stop.is_set():
                    return
                try:
                    client.sendall(b"\x00")  # ...that arrives one byte at a time
                except OSError:
                    return
                time.sleep(0.05)

        sender = threading.Thread(target=trickle, daemon=True)
        sender.start()
        started = time.monotonic()
        with pytest.raises(ProtocolError, match=r"server 4.*timed out mid-frame"):
            connection.recv_update()
        # The deadline fired on schedule, not after 64 * 0.05s of trickle.
        assert time.monotonic() - started < 2.0
        stop.set()
        connection.close()
        client.close()

    def test_frame_timeout_aborts_a_stalled_frame(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = socket.create_connection(("127.0.0.1", listener.getsockname()[1]))
        server_sock, _ = listener.accept()
        listener.close()
        connection = FrameConnection(
            server_sock, peer="server 3", frame_timeout_s=0.2
        )
        client.sendall(b"\x00" * 5)  # frame starts, then the sender hangs
        with pytest.raises(ProtocolError, match="timed out mid-frame"):
            connection.recv_update()
        connection.close()
        client.close()


class _TimeoutCountingSocket:
    """A real socket that counts ``settimeout`` calls (one ioctl each)."""

    def __init__(self, sock):
        self._sock = sock
        self.settimeout_calls = []

    def settimeout(self, value):
        self.settimeout_calls.append(value)
        self._sock.settimeout(value)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestReceiveLeavesTheSocketTimeoutAlone:
    """``recv_update`` touches the socket's timeout only to change it."""

    @staticmethod
    def _receiver(socket_pair, **kwargs):
        client, server = socket_pair
        counting = _TimeoutCountingSocket(server._sock)
        return client, counting, FrameConnection(counting, **kwargs)

    def test_blocking_receive_never_calls_settimeout(self, socket_pair):
        client, sock, receiver = self._receiver(socket_pair)
        for seed in range(3):
            client.send_update(make_update(seed=seed))
            assert receiver.recv_update() is not None
        assert sock.settimeout_calls == []

    def test_idle_timeout_equal_to_the_sockets_own_is_not_reapplied(
        self, socket_pair
    ):
        client, sock, receiver = self._receiver(socket_pair)
        sock.settimeout(0.05)
        sock.settimeout_calls.clear()
        assert receiver.recv_update(idle_timeout_s=0.05) is None
        client.send_update(make_update())
        assert receiver.recv_update(idle_timeout_s=0.05) is not None
        assert sock.settimeout_calls == []

    def test_changed_timeouts_are_restored(self, socket_pair):
        client, sock, receiver = self._receiver(socket_pair, frame_timeout_s=5.0)
        assert receiver.recv_update(idle_timeout_s=0.05) is None
        assert sock.settimeout_calls == [0.05, None]
        client.send_update(make_update())
        assert receiver.recv_update() is not None
        assert sock.gettimeout() is None
        assert sock.settimeout_calls[-1] is None


class TestRetryAndReconnect:
    def test_send_retries_through_reconnect(self):
        """A send whose socket has died transparently re-dials and lands."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]

        # The acceptor hands each server-side socket over a queue and the
        # re-dial raises an event, so every wait below has a deadline and
        # none of them is a spin on shared state.
        accepted: queue.Queue = queue.Queue()
        redialed = threading.Event()

        def accept_loop():
            for _ in range(2):
                sock, _ = listener.accept()
                accepted.put(sock)

        def reconnect():
            sock = socket.create_connection(("127.0.0.1", port))
            redialed.set()
            return sock

        acceptor = threading.Thread(target=accept_loop, daemon=True)
        acceptor.start()

        first = socket.create_connection(("127.0.0.1", port))
        sender = FrameConnection(
            first,
            peer="server 1",
            reconnect=reconnect,
            retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=0.01),
        )
        # Kill the server side of the first connection (RST, not FIN) so the
        # next sends eventually fail with ECONNRESET/EPIPE.
        first_server = accepted.get(timeout=10.0)
        first_server.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        first_server.close()

        update = make_update()
        # Keep sending until the dead socket is noticed and replaced; every
        # call must either succeed or retry internally — never raise.
        for _ in range(50):
            sender.send_update(update)
            if redialed.is_set():
                break
        assert redialed.is_set()  # the reconnect path actually re-dialed
        # The send that re-dialed landed on the new connection; the acceptor
        # may not have picked it up yet, hence the deadline.
        receiver = FrameConnection(accepted.get(timeout=10.0))
        received = receiver.recv_update()
        assert received.round_index == update.round_index
        acceptor.join(timeout=10.0)
        assert not acceptor.is_alive()
        sender.close()
        receiver.close()
        listener.close()

    def test_exhausted_retries_raise_protocol_error_naming_peer(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = socket.create_connection(("127.0.0.1", listener.getsockname()[1]))
        server_sock, _ = listener.accept()
        listener.close()
        sender = FrameConnection(
            client,
            peer="server 9",
            retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
        )
        server_sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER,
            __import__("struct").pack("ii", 1, 0),
        )
        server_sock.close()
        update = make_update(total=4000, n_sent=2000)
        with pytest.raises(ProtocolError, match="server 9"):
            for _ in range(200):  # the OS buffer absorbs the first few
                sender.send_update(update)
        sender.close()

    def test_reconnect_storm_after_peer_restart(self):
        """A peer that restarts (all connections reset, then the listener
        comes back on the same port) triggers simultaneous re-dials from
        every sender; all of them must land their frames on the new
        incarnation without a single ProtocolError escaping."""
        n_senders = 4
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(n_senders * 2)
        port = listener.getsockname()[1]

        old_accepted = []
        senders = []
        for i in range(n_senders):
            client = socket.create_connection(("127.0.0.1", port))
            sock, _ = listener.accept()
            old_accepted.append(sock)
            senders.append(
                FrameConnection(
                    client,
                    peer=f"server {i}",
                    reconnect=lambda: socket.create_connection(
                        ("127.0.0.1", port)
                    ),
                    retry_policy=RetryPolicy(
                        max_attempts=8, backoff_base_s=0.01, backoff_max_s=0.05
                    ),
                )
            )

        # Restart the peer: reset every established connection, drop the
        # listener, then come back on the same port.
        listener.close()
        for sock in old_accepted:
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
        restarted = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        restarted.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        restarted.bind(("127.0.0.1", port))
        restarted.listen(n_senders * 2)

        new_accepted = []

        def accept_loop():
            restarted.settimeout(0.2)
            while len(new_accepted) < n_senders:
                try:
                    sock, _ = restarted.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                new_accepted.append(sock)

        acceptor = threading.Thread(target=accept_loop, daemon=True)
        acceptor.start()

        errors = []

        def pump(index):
            # The first sends may vanish into the dead socket's buffer;
            # keep pushing until the reconnect path has demonstrably fired.
            try:
                for round_index in range(100):
                    senders[index].send_update(
                        make_update(sender=index, round_index=round_index)
                    )
                    if len(new_accepted) >= n_senders:
                        return
            except ProtocolError as error:
                errors.append(error)

        pumps = [
            threading.Thread(target=pump, args=(i,)) for i in range(n_senders)
        ]
        for thread in pumps:
            thread.start()
        for thread in pumps:
            thread.join(timeout=10.0)

        assert not errors  # every send either landed or retried internally
        assert len(new_accepted) >= n_senders
        seen = set()
        for sock in new_accepted:
            receiver = FrameConnection(sock)
            update = receiver.recv_update(idle_timeout_s=1.0)
            if update is not None:
                seen.add(update.sender)
            receiver.close()
        assert seen == set(range(n_senders))
        for sender in senders:
            sender.close()
        restarted.close()

    def test_exhaustion_with_failing_reconnect_names_peer_and_attempts(self):
        """When the peer never comes back (reconnect factory keeps failing),
        the send gives up after exactly ``max_attempts`` tries with an error
        naming the peer and chaining the underlying socket failure."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = socket.create_connection(("127.0.0.1", listener.getsockname()[1]))
        server_sock, _ = listener.accept()
        listener.close()

        def dial_the_void():
            raise OSError("connection refused")

        sender = FrameConnection(
            client,
            peer="server 5",
            reconnect=dial_the_void,
            retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=0.01),
        )
        server_sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        server_sock.close()
        update = make_update(total=4000, n_sent=2000)
        with pytest.raises(
            ProtocolError, match=r"server 5.*after 3 attempt"
        ) as excinfo:
            for _ in range(200):  # the OS buffer absorbs the first few
                sender.send_update(update)
        assert isinstance(excinfo.value.__cause__, OSError)
        sender.close()

    def test_retry_policy_backoff_grows_and_caps(self):
        import random

        policy = RetryPolicy(
            max_attempts=5, backoff_base_s=0.1, backoff_max_s=0.3, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.delay_s(attempt, rng) for attempt in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]  # doubles, then caps
