"""Control-plane liveness: daemon health probes for supervisors and clients.

A daemon is *healthy* when it accepts a connection, answers the
``transport.hello`` handshake and replies to ``transport.ping`` — i.e. its
accept loop, dispatcher and control plane are all running, not merely the
port being bound.  :func:`wait_until_healthy` is the gate
:meth:`~repro.transport.supervisor.LocalSupervisor.restart` blocks on, so a
"restarted" daemon is actually serving before anyone talks to it.

The probe speaks the raw frame protocol (no :class:`DaemonClient`): it must
work against an unprovisioned daemon, must never retry internally (the
caller owns the schedule) and must be cheap enough to call in a poll loop.
"""

from __future__ import annotations

import socket
import time
from typing import Any

from repro.exceptions import DeadlineExceeded, PeerUnavailable
from repro.network.channel import Message
from repro.resilience.policy import Deadline
from repro.transport.framing import (
    recv_frame,
    send_frame,
    setup_stream_socket,
)
from repro.transport.wire import WireCodec

__all__ = ["probe_daemon", "wait_until_healthy"]


def probe_daemon(address: tuple[str, int],
                 timeout: float = 2.0) -> dict[str, Any]:
    """One hello + ping round trip; returns the ping payload.

    Raises :class:`PeerUnavailable` (connection refused/reset, bad reply)
    or :class:`DeadlineExceeded` (daemon accepted but is not answering).
    """
    codec = WireCodec()
    deadline = Deadline(timeout)
    try:
        sock = setup_stream_socket(
            socket.create_connection(address, timeout=timeout))
    except OSError as exc:
        raise PeerUnavailable(
            f"daemon at {address[0]}:{address[1]} is not accepting "
            f"connections: {exc}") from exc
    try:
        for tag, payload in (("transport.hello", {"peer": "client"}),
                             ("transport.ping", None)):
            message = Message(sender="probe", recipient="daemon", tag=tag,
                              payload=payload)
            send_frame(sock, codec.encode_message(message),
                       deadline=deadline.expires_at)
            body = recv_frame(sock, deadline=deadline.expires_at)
            if body is None:
                raise PeerUnavailable(
                    f"daemon at {address[0]}:{address[1]} closed the "
                    f"connection during the health probe")
            reply = codec.decode_message(body)
        if not isinstance(reply.payload, dict):
            raise PeerUnavailable(
                f"daemon at {address[0]}:{address[1]} sent a malformed "
                f"ping reply")
        return reply.payload
    finally:
        try:
            sock.close()
        except OSError:
            pass


def wait_until_healthy(address: tuple[str, int], timeout: float = 30.0,
                       interval: float = 0.05,
                       require_provisioned: bool = False) -> dict[str, Any]:
    """Poll :func:`probe_daemon` until it succeeds or ``timeout`` elapses.

    Returns the first healthy ping payload.  With ``require_provisioned``
    the daemon must also report ``provisioned: true`` (used when waiting for
    a restarted daemon to be re-provisioned by a client).
    """
    deadline = Deadline(timeout)
    last_error: Exception | None = None
    while True:
        remaining = deadline.remaining()
        if remaining is not None and remaining <= 0:
            break
        try:
            payload = probe_daemon(address,
                                   timeout=min(2.0, remaining or 2.0))
            if not require_provisioned or payload.get("provisioned"):
                return payload
            last_error = PeerUnavailable(
                f"daemon at {address[0]}:{address[1]} is up but not "
                f"provisioned")
        except (PeerUnavailable, DeadlineExceeded) as exc:
            last_error = exc
        time.sleep(interval)
    raise DeadlineExceeded(
        f"daemon at {address[0]}:{address[1]} did not become healthy "
        f"within {timeout:.1f}s: {last_error}")
