"""Length-prefixed frames over a stream socket.

The distributed runtime exchanges discrete messages over TCP, which is a byte
stream; framing restores the message boundaries.  A frame is::

    +----------------+---------------------+
    | length (4B BE) |  body (length bytes) |
    +----------------+---------------------+

The 4-byte big-endian length counts only the body.  The body is the wire
codec's JSON encoding of one :class:`~repro.network.channel.Message` (see
:mod:`repro.transport.wire`).  Every framing failure — truncated stream,
oversized frame, connection reset — surfaces as
:class:`~repro.exceptions.ChannelError`, the same error class the in-memory
channel uses for misuse, so protocol code handles both transports uniformly.
Failures are *typed* within that class: socket-level unreachability raises
:class:`~repro.exceptions.PeerUnavailable` and a blown deadline raises
:class:`~repro.exceptions.DeadlineExceeded`, both retriable.

Both :func:`send_frame` and :func:`recv_frame` accept an optional
``deadline`` — an **absolute** :func:`time.monotonic` timestamp, not a
per-call timeout — so a multi-read operation (header, then body, possibly in
chunks) shares one overall bound and can never block past it.
"""

from __future__ import annotations

import socket
import struct
import time

from repro.crypto.serialization import FRAME_HEADER_BYTES
from repro.exceptions import ChannelError, DeadlineExceeded, PeerUnavailable

__all__ = ["FRAME_HEADER_BYTES", "MAX_FRAME_BYTES", "send_frame", "recv_frame",
           "deadline_at", "setup_stream_socket"]

#: refuse frames larger than this (a corrupt length prefix would otherwise
#: make the receiver try to allocate gigabytes); large enough for a whole
#: encrypted table at 2048-bit keys.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">I")


def setup_stream_socket(sock: socket.socket) -> socket.socket:
    """Prepare a freshly dialled or accepted TCP socket for framed traffic.

    Every stream socket this package opens or accepts passes through here.
    It leaves the socket blocking (deadlines are armed per operation, see
    :func:`send_frame`) and sets ``TCP_NODELAY``: a frame is already one
    ``sendall``, so Nagle's algorithm has nothing to coalesce — it would
    only hold the second of two back-to-back small frames (a telemetry
    bracket and the protocol frame next to it, or two half-batches of one
    round) until the peer's delayed ACK, ~40 ms later.
    """
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def deadline_at(timeout: float | None) -> float | None:
    """Absolute monotonic deadline ``timeout`` seconds from now."""
    return None if timeout is None else time.monotonic() + timeout


def _arm(sock: socket.socket, deadline: float | None,
         operation: str) -> None:
    """Set the socket timeout to the time left until ``deadline``."""
    if deadline is None:
        return
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise DeadlineExceeded(f"{operation} deadline exceeded")
    sock.settimeout(remaining)


def _disarm(sock: socket.socket) -> None:
    try:
        sock.settimeout(None)
    except OSError:
        pass  # socket already closed; the operation's error wins


def send_frame(sock: socket.socket, body: bytes,
               deadline: float | None = None) -> int:
    """Write one frame; returns the total bytes put on the wire.

    ``deadline`` (absolute monotonic time) bounds how long a send may block
    on a wedged peer whose receive window is full.
    """
    if len(body) > MAX_FRAME_BYTES:
        raise ChannelError(
            f"refusing to send a {len(body)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})")
    try:
        _arm(sock, deadline, "send")
        sock.sendall(_HEADER.pack(len(body)) + body)
    except socket.timeout as exc:
        raise DeadlineExceeded(
            "send blocked past its deadline (peer not draining)") from exc
    except OSError as exc:
        raise PeerUnavailable(f"send failed: {exc}") from exc
    finally:
        if deadline is not None:
            _disarm(sock)
    return FRAME_HEADER_BYTES + len(body)


def _recv_exact(sock: socket.socket, count: int,
                deadline: float | None) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        try:
            _arm(sock, deadline, "receive")
            chunk = sock.recv(remaining)
        except socket.timeout as exc:
            raise DeadlineExceeded(
                f"no frame within the deadline ({count - remaining} of "
                f"{count} bytes read)") from exc
        except OSError as exc:
            raise PeerUnavailable(f"receive failed: {exc}") from exc
        if not chunk:
            if not chunks:
                return None
            raise ChannelError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes read)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket,
               deadline: float | None = None) -> bytes | None:
    """Read one frame body; ``None`` when the peer closed cleanly.

    A clean close is EOF exactly on a frame boundary; EOF anywhere else is a
    truncated stream and raises :class:`~repro.exceptions.ChannelError`.
    ``deadline`` (absolute monotonic time) bounds the whole read — header
    and body together; a silent peer raises
    :class:`~repro.exceptions.DeadlineExceeded` instead of hanging the
    thread forever.
    """
    try:
        header = _recv_exact(sock, FRAME_HEADER_BYTES, deadline)
        if header is None:
            return None
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ChannelError(
                f"incoming frame claims {length} bytes "
                f"(limit {MAX_FRAME_BYTES}); stream is corrupt or the peer "
                f"is not speaking the repro protocol")
        if length == 0:
            return b""
        body = _recv_exact(sock, length, deadline)
        if body is None:
            raise ChannelError(
                "connection closed between frame header and body")
        return body
    finally:
        if deadline is not None:
            _disarm(sock)
