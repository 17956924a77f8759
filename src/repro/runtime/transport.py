"""Length-prefixed, CRC-protected frame transport over TCP sockets.

A 21-byte header precedes every Fig. 3 payload on the wire:

```
>u32 sender        originating server id
>u32 round_index   iteration the update belongs to
>u8  frame_format  0 = UNCHANGED_INDEX, 1 = INDEX_VALUE, 2 = QUANTIZED
>u32 total_params  model dimension N (needed to decode frame A)
>u32 payload_len   bytes of codec payload that follow
>u32 frame_crc     CRC32 (zlib.crc32) of the 17 header bytes above, then
                  the payload
```

The header is transport overhead and is accounted separately from the
paper's frame-size formulas (the testbed's "bytes written into the socket"
measurement in the paper likewise measures payloads).

Fault tolerance lives at this layer:

* **Integrity** — the receiver recomputes the CRC32 over the header's
  first 17 bytes and the payload and raises
  :class:`~repro.exceptions.FrameCorruptionError` on mismatch, so a flipped
  sender, round, format or dimension field is caught like a flipped payload
  byte. Because the length field framed the payload correctly, the byte
  stream stays aligned and the connection keeps working; the caller
  discards the update and applies the straggler rule.
* **Retry** — sends that hit a transient socket error are retried under a
  :class:`RetryPolicy` (bounded attempts, exponential backoff with jitter),
  reconnecting via the connection's ``reconnect`` factory when the old
  socket is beyond repair (``ECONNRESET`` / broken pipe).
* **Deadlines** — ``frame_timeout_s`` bounds how long a started frame may
  take to finish arriving, so one hung peer cannot wedge a reader forever;
  ``recv_update(idle_timeout_s=...)`` additionally bounds the wait for a
  frame to *start*, returning ``None`` on idle so reader loops can poll
  shutdown flags.

Received bytes go through one incremental :class:`FrameParser`, sent frames
through one out-buffer. Over a blocking socket a :class:`FrameConnection`
does the waiting itself (``recv_update`` blocks, a failed send sleeps out
its back-off); over a *non-blocking* one it never waits — an event loop
calls ``fill`` when the socket is readable and ``flush`` when it is writable
or a retry is due (``retry_at``).
"""

from __future__ import annotations

import random
import socket
import struct
import time
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.exceptions import FrameCorruptionError, ProtocolError
from repro.network.codec import decode_update, encode_update
from repro.network.frames import FrameFormat
from repro.network.messages import ParameterUpdate

_HEADER = struct.Struct(">IIBIII")

#: The header's fields before its CRC, which the CRC covers.
_FIELDS = struct.Struct(">IIBII")

#: Wire bytes of the transport header preceding each payload.
HEADER_BYTES = _HEADER.size

_FORMAT_CODES = {
    FrameFormat.UNCHANGED_INDEX: 0,
    FrameFormat.INDEX_VALUE: 1,
    FrameFormat.QUANTIZED: 2,
}
_FORMAT_BY_CODE = {code: fmt for fmt, code in _FORMAT_CODES.items()}

#: Bytes asked of the kernel per ``recv``: many small frames or a slice of a big one.
_RECV_BYTES = 1 << 16


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


def encode_frame(update: ParameterUpdate) -> tuple[bytes, bytes]:
    """``update``'s transport header, CRC32 included, and its codec payload."""
    payload = encode_update(update)
    fields = _FIELDS.pack(
        update.sender,
        update.round_index,
        _FORMAT_CODES[update.frame_format],
        update.total_params,
        len(payload),
    )
    crc = zlib.crc32(payload, zlib.crc32(fields))
    return fields + crc.to_bytes(4, "big"), payload


class FrameParser:
    """Incremental decoder of the frame stream, however ``recv`` cut it up.

    Each frame goes header → length → CRC32 (header fields and payload) →
    ``decode_update``; one that fails its CRC is consumed whole, so the
    stream stays aligned.
    """

    def __init__(self, peer: str = "peer"):
        self.peer = peer
        #: Bytes of the frame(s) in progress; non-empty = mid-frame.
        self.buffered = bytearray()

    def feed(self, data: bytes) -> None:
        """Append received bytes; ``b""`` is the peer's EOF."""
        if data:
            self.buffered += data
        elif not self.buffered:
            raise ProtocolError(
                f"connection to {self.peer} closed (EOF before frame start)"
            )
        else:
            raise ProtocolError(
                f"connection to {self.peer} closed mid-frame: %d of %d "
                "expected bytes never arrived" % self.progress()
            )

    def progress(self) -> tuple[int, int]:
        """``(missing, expected)`` bytes of the part being read: what must
        follow a frame's first byte (the header's rest), then the payload."""
        have = len(self.buffered)
        if have < HEADER_BYTES:
            return HEADER_BYTES - have, HEADER_BYTES - 1
        payload_len = _HEADER.unpack_from(self.buffered)[4]
        return HEADER_BYTES + payload_len - have, payload_len

    def take(self, n_bytes: int) -> bytes | None:
        """Pop ``n_bytes`` of raw preamble (a hello), once that many arrived."""
        if len(self.buffered) < n_bytes:
            return None
        head = bytes(self.buffered[:n_bytes])
        del self.buffered[:n_bytes]
        return head

    def next_frame(self) -> ParameterUpdate | FrameCorruptionError | None:
        """Decode the next complete frame; ``None`` when more bytes are needed.

        A frame that fails its CRC32 check is *returned* as its
        ``FrameCorruptionError`` — raise it or count it; later frames stay
        readable. An unknown format code raises ``ProtocolError``: the stream
        cannot be trusted any further.
        """
        buffer = self.buffered
        if len(buffer) < HEADER_BYTES:
            return None
        sender, round_index, code, total_params, payload_len, crc = (
            _HEADER.unpack_from(buffer)
        )
        if code not in _FORMAT_BY_CODE:
            raise ProtocolError(
                f"unknown frame-format code {code} from {self.peer}"
            )
        end = HEADER_BYTES + payload_len
        if len(buffer) < end:
            return None
        with memoryview(buffer) as view:
            fields_crc = zlib.crc32(view[: _FIELDS.size])
            payload = bytes(view[HEADER_BYTES:end])
        del buffer[:end]
        if zlib.crc32(payload, fields_crc) != crc:
            return FrameCorruptionError(
                f"frame from {self.peer} (sender {sender}, round {round_index}) "
                f"failed its CRC32 integrity check",
                sender=sender,
                round_index=round_index,
            )
        return decode_update(
            payload, _FORMAT_BY_CODE[code], total_params, sender, round_index
        )


class FrameConnection:
    """A persistent, bidirectionally usable frame channel over one socket.

    Parameters
    ----------
    sock:
        The connected TCP socket. Its blocking mode decides who waits (see
        the module docstring).
    peer:
        Human-readable peer label used in error messages.
    reconnect:
        Optional zero-argument factory returning a *new* connected socket to
        the same peer, in the same blocking mode (performing any
        application-level hello itself). When given, failed sends re-dial
        through it between retries.
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
        self.parser = FrameParser(peer)
        #: Whole frames not yet fully written (to the kernel, or because a
        #: retry is pending), and how much of the first one is.
        self.outbox: deque[bytes] = deque()
        self._head_sent = 0
        self._attempt = 0
        #: ``time.monotonic()`` before which a failed send must not be
        #: retried (``None`` = no retry pending).
        self.retry_at: float | None = None
        self._configure(sock)

    @staticmethod
    def _configure(sock: socket.socket) -> None:
        # Disable Nagle: rounds are latency-bound, frames are small.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    @property
    def sock(self) -> socket.socket:
        """The current socket (a successful re-dial replaces it)."""
        return self._sock

    # -- sending -----------------------------------------------------------------

    def send_update(
        self, update: ParameterUpdate, frame: tuple[bytes, bytes] | None = None
    ) -> int:
        """Encode and transmit one update; returns *payload* bytes written.

        ``frame`` is ``encode_frame(update)`` when the caller already has it
        — one update sent down several connections is encoded once.
        Transient socket errors are retried per the connection's
        :class:`RetryPolicy`, re-dialing through the ``reconnect`` factory
        when available; a send that exhausts its attempts raises
        :class:`~repro.exceptions.ProtocolError`. Over a non-blocking socket
        "written" may mean queued in ``outbox`` for :meth:`flush`.
        """
        header, payload = encode_frame(update) if frame is None else frame
        return self._transmit(header, payload)

    def send_corrupted(self, update: ParameterUpdate) -> int:
        """Chaos hook: transmit ``update`` with a deliberately damaged CRC.

        Models in-flight corruption end to end: the frame consumes real wire
        bytes and arrives correctly framed, but the receiver's integrity
        check must reject it. Flipping bits in the *CRC field* (rather than
        the payload) guarantees detection even for zero-length payloads.
        """
        header, payload = encode_frame(update)
        *fields, crc = _HEADER.unpack(header)
        return self._transmit(_HEADER.pack(*fields, crc ^ 0xDEADBEEF), payload)

    def _transmit(self, header: bytes, payload: bytes) -> int:
        self.outbox.append(header + payload)
        self.flush()
        while self.retry_at is not None and self._sock.gettimeout() != 0:
            time.sleep(max(0.0, self.retry_at - time.monotonic()))
            self.flush()
        return len(payload)

    def flush(self) -> None:
        """Write queued frames as far as the socket takes them right now.

        A socket error starts, or continues, the :class:`RetryPolicy`
        schedule: the frames stay queued, ``retry_at`` is set, and the first
        call at or after it re-dials, then writes again from a frame
        boundary. ``max_attempts`` consecutive failures drop the queue and
        raise :class:`~repro.exceptions.ProtocolError`.
        """
        if self.retry_at is not None:
            if time.monotonic() < self.retry_at:
                return
            self.retry_at = None
            self._try_reconnect()
        outbox = self.outbox
        try:
            while outbox:
                self._head_sent += self._sock.send(
                    memoryview(outbox[0])[self._head_sent:]
                )
                # A short write loops: a full kernel buffer ends it as
                # BlockingIOError, a blocking socket takes the rest.
                if self._head_sent == len(outbox[0]):
                    outbox.popleft()
                    self._head_sent = 0
            self._attempt = 0
        except BlockingIOError:
            return
        except OSError as error:
            self._head_sent = 0
            self._attempt += 1
            if self._closed or self._attempt >= self.retry_policy.max_attempts:
                attempts, self._attempt = self._attempt, 0
                outbox.clear()
                raise ProtocolError(
                    f"send to {self.peer} failed after {attempts} "
                    f"attempt(s): {error}"
                ) from error
            self.retry_at = time.monotonic() + self.retry_policy.delay_s(
                self._attempt, self._rng
            )

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

    def fill(self) -> None:
        """One ``recv`` into the parser; EOF is a ``ProtocolError``, a spurious
        wake-up of a non-blocking socket is nothing."""
        try:
            self.parser.feed(self._sock.recv(_RECV_BYTES))
        except BlockingIOError:
            pass

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
        parser = self.parser
        # settimeout is an ioctl that releases the GIL: only call it to
        # *change* how long the socket waits, and put back what was there.
        previous = current = self._sock.gettimeout()
        deadline = None
        try:
            while True:
                frame = parser.next_frame()
                if isinstance(frame, FrameCorruptionError):
                    raise frame
                if frame is not None:
                    return frame
                wanted = idle_timeout_s
                if parser.buffered:
                    wanted = previous
                    if self.frame_timeout_s is not None:
                        if deadline is None:
                            deadline = time.monotonic() + self.frame_timeout_s
                        wanted = deadline - time.monotonic()
                        if wanted <= 0:
                            raise self._frame_timed_out()
                if wanted != current:
                    self._sock.settimeout(wanted)
                    current = wanted
                try:
                    self.fill()
                except socket.timeout as error:
                    if not parser.buffered:
                        return None
                    raise self._frame_timed_out() from error
        finally:
            if current != previous:
                try:
                    self._sock.settimeout(previous)
                except OSError:
                    pass

    def _frame_timed_out(self) -> ProtocolError:
        missing, expected = self.parser.progress()
        return ProtocolError(
            f"frame from {self.peer} timed out mid-frame: {missing} of "
            f"{expected} bytes still missing after {self.frame_timeout_s}s"
        )

    def close(self) -> None:
        """Close the underlying socket."""
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
