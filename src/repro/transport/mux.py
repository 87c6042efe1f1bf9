"""Multiplexed peer connections: pipelined queries over shared C1<->C2 links.

The PR-4 transport gave each C1 daemon exactly one socket channel to C2 and
serialized every query behind a lock: protocol frames carry no query
identity, so two in-flight queries would interleave their frames and desync
both.  This module removes that bottleneck.  Every frame of a pipelined
query carries a *context id* (the sixth envelope element, see
:func:`repro.crypto.serialization.message_envelope_to_bytes`), and a
:class:`MuxConnection` demultiplexes the shared socket into per-context
:class:`MuxChannel` objects — each one a drop-in ``DuplexChannel`` surface,
so the protocol stack (``protocols/*``, ``core/*``) runs over a multiplexed
link unchanged.

Topology of one C1<->C2 peer connection:

* **C1 side** — a :class:`PeerPool` owns N persistent :class:`MuxConnection`
  dials; every query leases a fresh context (a :class:`MuxChannel`) from the
  least-loaded live connection, so N*M queries overlap on M sockets.
* **C2 side** — the daemon wraps each accepted cloud-peer socket in a
  :class:`MuxConnection` whose ``on_new_context`` callback spawns one worker
  thread per context; each worker runs the ordinary P2 dispatch loop over
  its own channel, so concurrent queries execute their C2 steps in parallel.

Frames without a context id (a pre-pipelining C1, or control traffic) route
to the reserved ``None`` context, which keeps old peers interoperable.

Byte accounting counts the *actual framed bytes* on the wire — outbound
traffic records what ``send_frame`` wrote under the sending role, inbound
records ``FRAME_HEADER_BYTES + len(body)`` under the remote role — at *both*
levels: each context's channel counts only its own frames (the
per-query numbers the run reports use) and the connection counts everything
(the per-connection rows ``/stats`` shows), so the context totals of a
connection always sum to its wire totals.

Failure semantics: a failed **send** (deadline or socket error) may leave a
partial frame on the stream, which desynchronises every context sharing the
socket — the whole connection is failed and every live context wakes with
the error.  A failed **receive** on one context (its deadline expiring)
affects only that context.  A dead connection is pruned from the pool and
re-dialled on the next lease, so one dropped link degrades the pipeline
instead of stalling it.
"""

from __future__ import annotations

import errno
import itertools
import socket
import struct
import threading
import time
from collections import deque
from typing import Any, Callable

from repro.exceptions import ChannelError, DeadlineExceeded, PeerUnavailable
from repro.network.channel import Message, _ambient_trace_context, _count_payload
from repro.network.stats import TrafficStats
from repro.telemetry import metrics as _metrics
from repro.transport.framing import (
    FRAME_HEADER_BYTES,
    deadline_at,
    recv_frame,
    send_frame,
)
from repro.transport.wire import WireCodec

__all__ = ["MuxChannel", "MuxConnection", "PeerPool", "CONTEXT_CLOSE_TAG"]

#: control tag announcing that the sender is done with a context; the
#: receiving side tears down the matching channel (and its worker thread).
CONTEXT_CLOSE_TAG = "transport.context_close"


def _set_send_timeout(sock: socket.socket, seconds: float) -> None:
    """Kernel-level send timeout (``SO_SNDTIMEO``) on a shared socket.

    A multiplexed socket has one thread blocked in ``recv`` while others
    send; ``sock.settimeout`` would flip the shared fd non-blocking and the
    concurrent ``recv`` would surface ``EAGAIN``.  ``SO_SNDTIMEO`` bounds
    only the send direction and leaves blocking mode alone — a wedged peer
    makes ``sendall`` fail with ``EAGAIN`` after ``seconds``.
    """
    whole = int(seconds)
    fraction = int((seconds - whole) * 1_000_000)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO,
                        struct.pack("@ll", whole, fraction))
    except (OSError, OverflowError, struct.error):  # pragma: no cover
        pass  # exotic platform: sends unbounded, receive deadlines remain


class MuxChannel:
    """One query context on a multiplexed peer connection.

    Implements the ``send``/``receive``/``pending``/accounting surface of
    the in-memory :class:`~repro.network.channel.DuplexChannel` (plus
    ``next_tag`` for daemon dispatch) over a socket, bound to a single
    context id: ``send`` stamps every outgoing frame with the context, and
    only frames carrying the same context are delivered to :meth:`receive`.
    Only the local role may ``send``/``receive`` — the opposite endpoint is
    another OS process.  The connection's reader thread fills the inbox, so a
    receive is a condition wait, not a socket read.
    """

    #: the remote endpoint is a separate OS process — see
    #: :class:`~repro.network.channel.DuplexChannel.runs_both_parties`.
    runs_both_parties = False

    def __init__(self, connection: "MuxConnection",
                 context: str | None) -> None:
        self._connection = connection
        self.context = context
        self.local_role = connection.local_role
        self.remote_role = connection.remote_role
        self.endpoint_a, self.endpoint_b = sorted(
            (self.local_role, self.remote_role))
        self.io_deadline = connection.io_deadline
        self.traffic: dict[str, TrafficStats] = {
            self.local_role: TrafficStats(),
            self.remote_role: TrafficStats(),
        }
        #: interface parity with the in-memory channel
        self.simulated_delay_seconds = 0.0
        self._inbox: deque[Message] = deque()
        self._condition = threading.Condition()
        self._failure: Exception | None = None

    # -- connection plumbing ---------------------------------------------------
    @property
    def connection(self) -> "MuxConnection":
        """The shared connection this context multiplexes over."""
        return self._connection

    def _deliver(self, message: Message) -> None:
        """Reader thread: file one inbound frame for this context."""
        with self._condition:
            self._inbox.append(message)
            self._condition.notify_all()

    def _fail(self, exc: Exception) -> None:
        """Wake every waiter with a terminal error (connection died)."""
        with self._condition:
            if self._failure is None:
                self._failure = exc
            self._condition.notify_all()

    # -- primary API ----------------------------------------------------------
    def send(self, sender: str, payload: Any, tag: str = "") -> None:
        """Send ``payload`` from the local role, stamped with this context."""
        if sender != self.local_role:
            raise ChannelError(
                f"cannot send as {sender!r}: this process is "
                f"{self.local_role!r}")
        self._connection.send_on(self, payload, tag)

    def receive(self, recipient: str, expected_tag: str | None = None) -> Any:
        """Receive this context's next message (bounded by the io deadline)."""
        if recipient != self.local_role:
            raise ChannelError(
                f"cannot receive as {recipient!r}: this process is "
                f"{self.local_role!r}")
        message = self._next_message(deadline_at(self.io_deadline))
        if message.tag == "transport.error":
            # The remote party failed mid-protocol and told us why instead
            # of leaving this context blocked on a frame that never comes.
            raise ChannelError(f"remote {self.remote_role} reported: "
                               f"{message.payload}")
        if expected_tag is not None and message.tag != expected_tag:
            raise ChannelError(
                f"expected message tagged {expected_tag!r} but got "
                f"{message.tag!r}")
        return message.payload

    def pending(self, recipient: str) -> int:
        """Frames routed to this context but not yet consumed."""
        if recipient != self.local_role:
            raise ChannelError(
                f"unknown local endpoint {recipient!r} (this process is "
                f"{self.local_role!r})")
        with self._condition:
            return len(self._inbox)

    # -- daemon dispatch support ----------------------------------------------
    def next_tag(self, timeout: float | None = None) -> str:
        """Block for this context's next message and return its tag.

        Waiting here is idleness (the context's worker awaiting the next
        protocol frame), so it is unbounded by default; pass ``timeout``
        (seconds) to bound it.  The connection failing unblocks it.
        """
        deadline = deadline_at(timeout)
        with self._condition:
            self._wait_for_message(deadline)
            return self._inbox[0].tag

    def next_trace(self) -> tuple[str, str] | None:
        """Trace context of the queued head message (after ``next_tag``)."""
        with self._condition:
            return self._inbox[0].trace if self._inbox else None

    def _wait_for_message(self, deadline: float | None) -> None:
        """Wait (under the lock) until the inbox is non-empty."""
        while not self._inbox:
            if self._failure is not None:
                raise self._wrap_failure()
            if deadline is None:
                self._condition.wait()
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._count_deadline_hit("receive")
                    raise DeadlineExceeded(
                        f"no frame for context {self.context!r} from "
                        f"{self.remote_role} within the io deadline")
                self._condition.wait(remaining)

    def _next_message(self, deadline: float | None) -> Message:
        with self._condition:
            self._wait_for_message(deadline)
            return self._inbox.popleft()

    def _wrap_failure(self) -> Exception:
        failure = self._failure
        if isinstance(failure, (PeerUnavailable, DeadlineExceeded)):
            return type(failure)(str(failure))
        return ChannelError(f"peer connection to {self.remote_role} failed: "
                            f"{failure}")

    def _count_deadline_hit(self, direction: str) -> None:
        _metrics.get_registry().counter(
            "repro_deadline_hits_total",
            "Blocking channel operations that hit their deadline.",
            ("role", "direction")).inc(role=self.local_role,
                                       direction=direction)

    # -- accounting -----------------------------------------------------------
    def total_traffic(self) -> TrafficStats:
        """Aggregate this context's traffic over both directions."""
        return self.traffic[self.local_role].merged_with(
            self.traffic[self.remote_role])

    def reset_accounting(self) -> None:
        """Clear this context's traffic statistics."""
        for stats in self.traffic.values():
            stats.reset()
        self.simulated_delay_seconds = 0.0

    # -- lifecycle ------------------------------------------------------------
    def release(self) -> None:
        """Detach this context from the connection (the connection lives on).

        Best-effort notifies the peer (so its per-context worker exits)
        before detaching; a dead connection just detaches.
        """
        self._connection.release_context(self, notify_peer=True)

    def close(self) -> None:
        """Alias of :meth:`release` — contexts never close the socket."""
        self._connection.release_context(self, notify_peer=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"MuxChannel(context={self.context!r}, "
                f"local={self.local_role!r}, remote={self.remote_role!r})")


class MuxConnection:
    """One peer socket carrying many interleaved query contexts.

    The reader (either :meth:`serve` inline or the :meth:`start_reader`
    background thread) is the only consumer of the socket: it decodes each
    frame, accounts its bytes, and routes it to the :class:`MuxChannel` of
    the frame's context id, creating the channel on first sight.  On the
    accepting side (C2), ``on_new_context`` is called with each newly
    created channel so the daemon can spawn a per-context worker.
    """

    def __init__(self, sock: socket.socket, codec: WireCodec,
                 local_role: str, remote_role: str,
                 io_deadline: float | None = None,
                 on_new_context: Callable[["MuxChannel"], None] | None = None,
                 ) -> None:
        self._sock = sock
        self._codec = codec
        self.local_role = local_role
        self.remote_role = remote_role
        self.io_deadline = io_deadline
        # The reader owns the socket's (blocking) mode; send deadlines are
        # enforced by the kernel so they never perturb a concurrent recv.
        sock.settimeout(None)
        if io_deadline is not None:
            _set_send_timeout(sock, io_deadline)
        self._on_new_context = on_new_context
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._contexts: dict[str | None, MuxChannel] = {}
        self._failure: Exception | None = None
        self._reader: threading.Thread | None = None
        #: connection-level traffic: everything on this socket, all contexts
        self.traffic: dict[str, TrafficStats] = {
            local_role: TrafficStats(),
            remote_role: TrafficStats(),
        }

    # -- introspection --------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the connection can still carry frames."""
        with self._lock:
            return self._failure is None

    def active_contexts(self) -> int:
        """Number of attached contexts (the pool's load metric)."""
        with self._lock:
            return len(self._contexts)

    def total_traffic(self) -> TrafficStats:
        """Aggregate connection traffic over both directions."""
        return self.traffic[self.local_role].merged_with(
            self.traffic[self.remote_role])

    # -- context management ---------------------------------------------------
    def channel(self, context: str | None) -> MuxChannel:
        """The channel for ``context``, created if unseen (local initiative)."""
        created = None
        with self._lock:
            if self._failure is not None:
                raise ChannelError(
                    f"peer connection to {self.remote_role} failed: "
                    f"{self._failure}")
            existing = self._contexts.get(context)
            if existing is None:
                existing = created = MuxChannel(self, context)
                self._contexts[context] = existing
        return existing if created is None else created

    def release_context(self, channel: MuxChannel,
                        notify_peer: bool = False) -> None:
        """Detach one context; optionally tell the peer to drop it too."""
        with self._lock:
            current = self._contexts.get(channel.context)
            attached = current is channel
            if attached:
                del self._contexts[channel.context]
            dead = self._failure is not None
        if attached and notify_peer and not dead:
            try:
                self._send_raw(channel.context, None, CONTEXT_CLOSE_TAG)
            except (ChannelError, DeadlineExceeded):
                pass  # best-effort: the peer reaps the context on its own

    # -- sending --------------------------------------------------------------
    def send_on(self, channel: MuxChannel, payload: Any, tag: str) -> None:
        """Send one frame on behalf of a context, with full accounting."""
        with self._lock:
            failure = self._failure
        if failure is not None:
            if isinstance(failure, (PeerUnavailable, DeadlineExceeded)):
                raise type(failure)(str(failure))
            raise ChannelError(f"peer connection to {self.remote_role} "
                               f"failed: {failure}")
        sent = self._send_raw(channel.context, payload, tag)
        ciphertexts, plaintexts = _count_payload(payload)
        channel.traffic[self.local_role].record(
            ciphertexts, plaintexts, sent, tag=tag)
        self.traffic[self.local_role].record(
            ciphertexts, plaintexts, sent, tag=tag)

    def _send_raw(self, context: str | None, payload: Any, tag: str) -> int:
        message = Message(sender=self.local_role, recipient=self.remote_role,
                          tag=tag, payload=payload,
                          trace=_ambient_trace_context(), context=context)
        body = self._codec.encode_message(message)
        try:
            # No framing-level deadline here: that would settimeout() the
            # socket, flipping the fd non-blocking under the reader thread's
            # concurrent recv().  The send bound is SO_SNDTIMEO (set once in
            # __init__), which the kernel enforces per-direction.
            with self._send_lock:
                return send_frame(self._sock, body)
        except (PeerUnavailable, ChannelError, OSError) as exc:
            cause = exc.__cause__ if isinstance(exc, PeerUnavailable) else exc
            if (isinstance(cause, OSError) and cause.errno in
                    (errno.EAGAIN, errno.EWOULDBLOCK)):
                # SO_SNDTIMEO expired: a timed-out sendall may have written
                # a partial frame, desynchronising the stream for every
                # context, so the whole connection is failed.
                _metrics.get_registry().counter(
                    "repro_deadline_hits_total",
                    "Blocking channel operations that hit their deadline.",
                    ("role", "direction")).inc(role=self.local_role,
                                               direction="send")
                timeout_exc = DeadlineExceeded(
                    "send blocked past the io deadline "
                    f"(peer {self.remote_role} not draining)")
                self.fail(timeout_exc)
                raise timeout_exc from exc
            self.fail(exc)
            if isinstance(exc, (PeerUnavailable, ChannelError)):
                raise
            raise PeerUnavailable(
                f"peer connection to {self.remote_role} failed: {exc}"
            ) from exc

    # -- receiving ------------------------------------------------------------
    def serve(self) -> None:
        """Read frames until the connection dies (runs on current thread)."""
        while self._read_one():
            pass

    def start_reader(self) -> None:
        """Run :meth:`serve` on a background daemon thread (C1 side)."""
        if self._reader is not None:
            return
        self._reader = threading.Thread(
            target=self.serve,
            name=f"sknn-mux-{self.local_role.lower()}-reader", daemon=True)
        self._reader.start()

    def _read_one(self) -> bool:
        """Read, account, and route one frame; ``False`` ends the loop."""
        try:
            # No deadline: waiting for the peer's next frame is idleness;
            # close() unblocks it by shutting the socket down.
            body = recv_frame(self._sock, deadline=None)
        except (ChannelError, OSError) as exc:
            self.fail(exc)
            return False
        if body is None:
            self.fail(PeerUnavailable(
                f"connection to {self.remote_role} closed"))
            return False
        try:
            message = self._codec.decode_message(body)
            ciphertexts, plaintexts = _count_payload(message.payload)
        except ChannelError as exc:
            self.fail(exc)
            return False
        size = FRAME_HEADER_BYTES + len(body)
        self.traffic[self.remote_role].record(
            ciphertexts, plaintexts, size, tag=message.tag)
        if message.tag == CONTEXT_CLOSE_TAG:
            self._drop_context(message.context)
            return True
        channel, created = self._route(message.context)
        if channel is None:
            return True  # unknown context on a pool connection: drop
        channel.traffic[self.remote_role].record(
            ciphertexts, plaintexts, size, tag=message.tag)
        channel._deliver(message)
        if created and self._on_new_context is not None:
            self._on_new_context(channel)
        return True

    def _route(self, context: str | None
               ) -> tuple[MuxChannel | None, bool]:
        """Find (or, on the accepting side, create) a context's channel."""
        with self._lock:
            channel = self._contexts.get(context)
            if channel is not None:
                return channel, False
            if self._on_new_context is None:
                # C1 pool side: a frame for a released context (e.g. a
                # late reply after the query timed out) has no consumer.
                return None, False
            channel = MuxChannel(self, context)
            self._contexts[context] = channel
            return channel, True

    def _drop_context(self, context: str | None) -> None:
        """Peer closed a context: fail its channel so its worker exits."""
        with self._lock:
            channel = self._contexts.pop(context, None)
        if channel is not None:
            channel._fail(ChannelError(
                f"context {context!r} closed by {self.remote_role}"))

    # -- failure & lifecycle ---------------------------------------------------
    def fail(self, exc: Exception) -> None:
        """Mark the connection dead and wake every context with the error."""
        with self._lock:
            if self._failure is not None:
                return
            self._failure = exc
            contexts = list(self._contexts.values())
            self._contexts.clear()
        for channel in contexts:
            channel._fail(exc)
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def close(self) -> None:
        """Shut the connection down (idempotent); unblocks the reader."""
        self.fail(PeerUnavailable(
            f"connection to {self.remote_role} closed locally"))
        reader = self._reader
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=5.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"MuxConnection(local={self.local_role!r}, "
                f"remote={self.remote_role!r}, "
                f"contexts={self.active_contexts()})")


class PeerPool:
    """N persistent multiplexed connections to the peer cloud (C1 side).

    ``lease()`` hands out a fresh context on the least-loaded live
    connection, re-dialling dead ones on demand: one dropped socket fails
    only the queries that were in flight on it, and the pool heals on the
    next lease.  ``size=1`` still pipelines — contexts, not connections,
    provide the concurrency — extra connections spread the socket-level
    send serialization across links.
    """

    def __init__(self, dial: Callable[[], MuxConnection], size: int = 1,
                 role: str = "c1") -> None:
        if size < 1:
            raise ChannelError("peer pool needs at least one connection")
        self._dial = dial
        self.size = size
        self._role = role
        self._lock = threading.Lock()
        self._connections: list[MuxConnection] = []
        self._context_ids = itertools.count(1)
        self._dialed_once = False
        self._closed = False

    def lease(self) -> MuxChannel:
        """A fresh context channel on the healthiest connection."""
        with self._lock:
            if self._closed:
                raise ChannelError("peer pool is closed")
            self._connections = [connection for connection in
                                 self._connections if connection.alive]
            redialled = 0
            while len(self._connections) < self.size:
                self._connections.append(self._dial())
                redialled += 1
            if redialled and self._dialed_once:
                _metrics.get_registry().counter(
                    "repro_reconnects_total",
                    "Peer/daemon connections re-established after a "
                    "failure.", ("role",)).inc(redialled, role=self._role)
            self._dialed_once = True
            connection = min(self._connections,
                             key=lambda item: item.active_contexts())
            context = f"q{next(self._context_ids)}"
        return connection.channel(context)

    def ensure(self) -> None:
        """Eagerly dial the pool up to ``size`` live connections.

        Called at provision time so an unreachable C2 surfaces as
        :class:`PeerUnavailable` to the provisioning client immediately,
        matching the pre-pipelining eager-dial behaviour.
        """
        with self._lock:
            if self._closed:
                raise ChannelError("peer pool is closed")
            self._connections = [connection for connection in
                                 self._connections if connection.alive]
            while len(self._connections) < self.size:
                self._connections.append(self._dial())
            self._dialed_once = True

    def discard(self, connection: MuxConnection) -> None:
        """Drop (and close) one connection after a mid-query failure."""
        with self._lock:
            if connection in self._connections:
                self._connections.remove(connection)
        connection.close()

    def connections(self) -> list[MuxConnection]:
        """Snapshot of the live connections (stats/introspection)."""
        with self._lock:
            return list(self._connections)

    def close(self) -> None:
        """Close every connection and refuse further leases."""
        with self._lock:
            self._closed = True
            connections = self._connections
            self._connections = []
        for connection in connections:
            connection.close()
