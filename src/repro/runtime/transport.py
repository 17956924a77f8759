"""Length-prefixed, CRC-protected frame transport over TCP sockets.

One :class:`FrameHeader` precedes every Fig. 3 payload on the wire:

```
>u32 sender        originating server id
>u32 round_index   iteration the update belongs to
>u8  frame_format  0 = UNCHANGED_INDEX, 1 = INDEX_VALUE, 2 = QUANTIZED
>u32 total_params  model dimension N (needed to decode frame A)
>u32 payload_len   bytes of codec payload that follow
>u32 payload_crc   CRC32 of the payload (zlib.crc32)
```

The header is transport overhead and is accounted separately from the
paper's frame-size formulas (the testbed's "bytes written into the socket"
measurement in the paper likewise measures payloads).

Fault tolerance lives at this layer:

* **Integrity** — the receiver recomputes the payload CRC32 and raises
  :class:`~repro.exceptions.FrameCorruptionError` on mismatch. Because the
  length field framed the payload correctly, the byte stream stays aligned
  and the connection keeps working; the caller discards the update and
  applies the straggler rule.
* **Retry** — sends that hit a transient socket error are retried under a
  :class:`RetryPolicy` (bounded attempts, exponential backoff with jitter),
  reconnecting via the connection's ``reconnect`` factory when the old
  socket is beyond repair (``ECONNRESET`` / broken pipe).
* **Deadlines** — ``frame_timeout_s`` bounds how long a started frame may
  take to finish arriving, so one hung peer cannot wedge a reader forever;
  ``recv_update(idle_timeout_s=...)`` additionally bounds the wait for a
  frame to *start*, returning ``None`` on idle so reader loops can poll
  shutdown flags.
"""

from __future__ import annotations

import random
import socket
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Callable

from repro.exceptions import FrameCorruptionError, ProtocolError
from repro.network.codec import decode_update, encode_update
from repro.network.frames import FrameFormat
from repro.network.messages import ParameterUpdate

_HEADER = struct.Struct(">IIBIII")

#: Wire bytes of the transport header preceding each payload.
HEADER_BYTES = _HEADER.size

_FORMAT_CODES = {
    FrameFormat.UNCHANGED_INDEX: 0,
    FrameFormat.INDEX_VALUE: 1,
    FrameFormat.QUANTIZED: 2,
}
_FORMAT_BY_CODE = {code: fmt for fmt, code in _FORMAT_CODES.items()}


@dataclass(frozen=True)
class FrameHeader:
    """Decoded transport header."""

    sender: int
    round_index: int
    frame_format: FrameFormat
    total_params: int
    payload_len: int
    payload_crc: int = 0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry schedule for transient send failures.

    ``backoff_base_s * 2**attempt`` seconds (capped at ``backoff_max_s``)
    separate attempts, each stretched by up to ``jitter`` of itself at
    random so simultaneously failing senders do not retry in lockstep.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_max_s: float = 1.0
    jitter: float = 0.5

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        base = min(self.backoff_base_s * (2 ** (attempt - 1)), self.backoff_max_s)
        return base * (1.0 + self.jitter * rng.random())


#: Policy used when the caller does not supply one.
DEFAULT_RETRY_POLICY = RetryPolicy()


class FrameConnection:
    """A persistent, bidirectionally usable frame channel over one socket.

    Parameters
    ----------
    sock:
        The connected TCP socket.
    peer:
        Human-readable peer label used in error messages.
    reconnect:
        Optional zero-argument factory returning a *new* connected socket to
        the same peer (performing any application-level hello itself). When
        given, failed sends re-dial through it between retries.
    retry_policy:
        Backoff schedule for transient send failures.
    frame_timeout_s:
        Once a frame's first byte has arrived, the rest of the frame must
        arrive within this many seconds (``None`` = no limit).
    """

    def __init__(
        self,
        sock: socket.socket,
        peer: str = "peer",
        reconnect: Callable[[], socket.socket] | None = None,
        retry_policy: RetryPolicy | None = None,
        frame_timeout_s: float | None = None,
    ):
        self._sock = sock
        self.peer = peer
        self._reconnect = reconnect
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        self.frame_timeout_s = frame_timeout_s
        self._rng = random.Random(zlib.crc32(peer.encode("utf-8")))
        self._closed = False
        self._configure(sock)

    @staticmethod
    def _configure(sock: socket.socket) -> None:
        # Disable Nagle: rounds are latency-bound, frames are small.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    # -- sending -----------------------------------------------------------------

    def send_update(self, update: ParameterUpdate) -> int:
        """Encode and transmit one update; returns *payload* bytes written.

        Transient socket errors are retried per the connection's
        :class:`RetryPolicy`, re-dialing through the ``reconnect`` factory
        when available; a send that exhausts its attempts raises
        :class:`~repro.exceptions.ProtocolError`.
        """
        payload = encode_update(update)
        return self._transmit(self._pack_header(update, payload), payload)

    def send_corrupted(self, update: ParameterUpdate) -> int:
        """Chaos hook: transmit ``update`` with a deliberately damaged CRC.

        Models in-flight corruption end to end: the frame consumes real wire
        bytes and arrives correctly framed, but the receiver's integrity
        check must reject it. Flipping bits in the *CRC field* (rather than
        the payload) guarantees detection even for zero-length payloads.
        """
        payload = encode_update(update)
        sender, round_index, code, total, length, crc = _HEADER.unpack(
            self._pack_header(update, payload)
        )
        header = _HEADER.pack(
            sender, round_index, code, total, length, crc ^ 0xDEADBEEF
        )
        return self._transmit(header, payload)

    def _pack_header(self, update: ParameterUpdate, payload: bytes) -> bytes:
        return _HEADER.pack(
            update.sender,
            update.round_index,
            _FORMAT_CODES[update.frame_format],
            update.total_params,
            len(payload),
            zlib.crc32(payload) & 0xFFFFFFFF,
        )

    def _transmit(self, header: bytes, payload: bytes) -> int:
        data = header + payload
        policy = self.retry_policy
        attempt = 0
        while True:
            try:
                self._sock.sendall(data)
                return len(payload)
            except OSError as error:
                attempt += 1
                if self._closed or attempt >= policy.max_attempts:
                    raise ProtocolError(
                        f"send to {self.peer} failed after {attempt} "
                        f"attempt(s): {error}"
                    ) from error
                time.sleep(policy.delay_s(attempt, self._rng))
                self._try_reconnect()

    def _try_reconnect(self) -> None:
        if self._reconnect is None or self._closed:
            return
        try:
            sock = self._reconnect()
        except OSError:
            return  # peer still unreachable; the next attempt will retry
        try:
            self._sock.close()
        except OSError:
            pass
        self._configure(sock)
        self._sock = sock

    # -- receiving ---------------------------------------------------------------

    def recv_update(
        self, idle_timeout_s: float | None = None
    ) -> ParameterUpdate | None:
        """Receive one full frame; decode, verify integrity, and return it.

        Blocks until a frame arrives. With ``idle_timeout_s``, returns
        ``None`` if no frame has *started* within that window (so reader
        loops can check shutdown flags); once a frame has started, the
        connection's ``frame_timeout_s`` bounds its completion instead.

        Raises :class:`~repro.exceptions.FrameCorruptionError` when the
        payload fails its CRC32 check — the stream itself remains aligned
        and subsequent frames stay readable.
        """
        first = self._recv_first_byte(idle_timeout_s)
        if first is None:
            return None
        deadline = (
            time.monotonic() + self.frame_timeout_s
            if self.frame_timeout_s is not None
            else None
        )
        header_bytes = first + self._recv_exactly(HEADER_BYTES - 1, deadline)
        sender, round_index, code, total_params, payload_len, crc = _HEADER.unpack(
            header_bytes
        )
        if code not in _FORMAT_BY_CODE:
            raise ProtocolError(
                f"unknown frame-format code {code} from {self.peer}"
            )
        payload = self._recv_exactly(payload_len, deadline)
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise FrameCorruptionError(
                f"frame from {self.peer} (sender {sender}, round {round_index}) "
                f"failed its CRC32 integrity check",
                sender=sender,
                round_index=round_index,
            )
        return decode_update(
            payload,
            _FORMAT_BY_CODE[code],
            total_params,
            sender,
            round_index,
        )

    def _recv_first_byte(self, idle_timeout_s: float | None) -> bytes | None:
        # settimeout is an ioctl that releases the GIL: skip it (and the
        # restore) when the socket already waits the wanted time.
        previous = self._sock.gettimeout()
        changed = idle_timeout_s != previous
        try:
            if changed:
                self._sock.settimeout(idle_timeout_s)
            try:
                chunk = self._sock.recv(1)
            except socket.timeout:
                return None
            if not chunk:
                raise ProtocolError(
                    f"connection to {self.peer} closed (EOF before frame start)"
                )
            return chunk
        finally:
            if changed:
                self._restore_timeout(previous)

    def _restore_timeout(self, previous: float | None) -> None:
        try:
            self._sock.settimeout(previous)
        except OSError:
            pass

    def _recv_exactly(self, n_bytes: int, deadline: float | None = None) -> bytes:
        chunks = []
        remaining = n_bytes
        previous = self._sock.gettimeout()
        try:
            while remaining > 0:
                if deadline is not None:
                    budget = deadline - time.monotonic()
                    if budget <= 0:
                        raise ProtocolError(
                            f"frame from {self.peer} timed out mid-frame: "
                            f"{remaining} of {n_bytes} bytes still missing "
                            f"after {self.frame_timeout_s}s"
                        )
                    self._sock.settimeout(budget)
                try:
                    chunk = self._sock.recv(remaining)
                except socket.timeout as error:
                    raise ProtocolError(
                        f"frame from {self.peer} timed out mid-frame: "
                        f"{remaining} of {n_bytes} bytes still missing "
                        f"after {self.frame_timeout_s}s"
                    ) from error
                if not chunk:
                    raise ProtocolError(
                        f"connection to {self.peer} closed mid-frame: "
                        f"{remaining} of {n_bytes} expected bytes never arrived"
                    )
                chunks.append(chunk)
                remaining -= len(chunk)
            return b"".join(chunks)
        finally:
            if deadline is not None:
                self._restore_timeout(previous)

    def close(self) -> None:
        """Close the underlying socket."""
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
