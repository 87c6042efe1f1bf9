"""Every stream socket of the package is set up in one place, without Nagle.

Two back-to-back small frames followed by a read — a telemetry bracket next
to a protocol frame, or the two half-batches of a pipelined round — is the
write-write-read pattern that Nagle's algorithm turns into a ~40 ms stall
per occurrence (the second frame waits for the peer's delayed ACK).  The
first test drives that pattern over loopback through
:func:`~repro.transport.framing.setup_stream_socket`; the second checks that
each socket site of the package — a dialled client, an accepted daemon
connection, C1's peer link, both legs of the chaos proxy — went through it.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time

from repro.crypto.serialization import private_key_to_dict
from repro.resilience.chaos import ChaosProxy
from repro.transport.client import DaemonClient
from repro.transport.daemon import C1Daemon, C2Daemon
from repro.transport.framing import (
    recv_frame,
    send_frame,
    setup_stream_socket,
)
from repro.transport.wire import WireCodec


def nodelay(sock: socket.socket) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_two_small_frames_then_a_read_never_wait_for_a_delayed_ack():
    iterations = 20
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def answer_every_second_frame() -> None:
        served, _ = listener.accept()
        with setup_stream_socket(served):
            for _ in range(iterations):
                recv_frame(served)
                recv_frame(served)
                send_frame(served, b"reply")

    server = threading.Thread(target=answer_every_second_frame, daemon=True)
    server.start()
    durations = []
    try:
        with setup_stream_socket(socket.create_connection(
                listener.getsockname(), timeout=5)) as client:
            for _ in range(iterations):
                started = time.perf_counter()
                send_frame(client, b"first small frame")
                send_frame(client, b"second small frame")
                assert recv_frame(client, time.monotonic() + 5) == b"reply"
                durations.append(time.perf_counter() - started)
    finally:
        listener.close()
        server.join(timeout=5)
    assert not server.is_alive()
    # ~0.1 ms per iteration with TCP_NODELAY, ~40 ms with Nagle on.
    assert statistics.median(durations) < 0.010


def test_every_socket_site_sets_tcp_nodelay(small_keypair):
    codec = WireCodec(small_keypair.public_key)
    c2 = C2Daemon(io_deadline=5.0)
    c2.start()
    c1 = C1Daemon(io_deadline=5.0)
    opened: list = [c2]
    try:
        client = DaemonClient((c2.host, c2.port), codec, request_deadline=10.0)
        opened.append(client)
        client.request("transport.provision", {
            "private_key": private_key_to_dict(small_keypair.private_key),
            "distance_bits": 6, "seed": 3})
        assert nodelay(client._sock) == 1                       # dialled
        assert [nodelay(sock) for sock in c2._connections] == [1]  # accepted

        c1._c2_address = (c2.host, c2.port)
        link = c1._dial_peer_connection()                       # peer link
        opened.append(link)
        assert nodelay(link._sock) == 1

        proxy = ChaosProxy((c2.host, c2.port)).start()
        opened.append(proxy)
        opened.append(DaemonClient(proxy.address, codec, request_deadline=10.0))
        (leg,) = proxy._links
        assert (nodelay(leg.downstream), nodelay(leg.upstream)) == (1, 1)
    finally:
        for resource in reversed(opened):
            resource.close()
