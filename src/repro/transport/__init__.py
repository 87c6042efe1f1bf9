"""Distributed runtime: C1, C2 and Bob as real networked processes.

The rest of the library simulates the paper's two non-colluding clouds inside
one Python process (:class:`~repro.network.channel.DuplexChannel`).  This
package provides the real thing:

* :mod:`repro.transport.framing` — length-prefixed frames over TCP;
* :mod:`repro.transport.wire` — the message codec (layered on
  :mod:`repro.crypto.serialization`);
* :mod:`repro.transport.mux` — :class:`MuxChannel`, a drop-in
  implementation of the ``DuplexChannel`` send/recv interface over a
  (multiplexed) socket;
* :mod:`repro.transport.daemon` — the party daemons ``C1Daemon`` and
  ``C2Daemon`` over their shared :class:`PartyDaemon` core
  (``repro party --role c1|c2 --listen HOST:PORT``);
* :mod:`repro.transport.supervisor` — spawns both daemons locally as
  subprocesses (tests, examples, ``SkNNSystem`` ``mode="distributed"``);
* :mod:`repro.transport.client` — Bob's client: provisioning, remote
  queries, share fetching, and the ``RemoteStore`` adapter behind
  ``SkNNSystem`` ``mode="distributed"``.
"""

from repro.transport.client import RemoteCloud, RemoteStore
from repro.transport.daemon import PartyDaemon, ShareMailbox, parse_address
from repro.transport.framing import recv_frame, send_frame
from repro.transport.supervisor import LocalSupervisor
from repro.transport.wire import WireCodec

__all__ = [
    "WireCodec",
    "PartyDaemon",
    "ShareMailbox",
    "LocalSupervisor",
    "RemoteCloud",
    "RemoteStore",
    "parse_address",
    "send_frame",
    "recv_frame",
]
