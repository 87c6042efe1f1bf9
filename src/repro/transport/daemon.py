"""Party daemons: C1 and C2 as standalone networked processes.

Three classes, split along the paper's separation of state:

* :class:`PartyDaemon` — what both parties share and nothing else: the
  listening socket and ``transport.hello`` handshake, the client
  request/reply control loop (``transport.*`` tags dispatched through the
  class's ``CONTROL_STEPS`` table, typed ``transport.error`` replies), the
  provision manifest, the precompute engine + ``--pool-cache``, the
  ``transport.stats``/metrics scaffolding and the lifecycle.
* :class:`C2Daemon` — holds ``sk`` and never the table.  On the *cloud-peer*
  connections C1 dials, every incoming frame's tag selects the registered P2
  step handler (:meth:`~repro.protocols.base.TwoPartyProtocol.
  collect_p2_handlers`) — the same handler code the in-memory runtime
  executes inline.  Owns the share mailbox and the per-run telemetry
  windows.
* :class:`C1Daemon` — holds ``Epk(T)`` and only ``pk``.  Owns the peer
  connection pool, the reply cache and the one *leased-peer runner* every
  C1-side run goes through (a query or a shard's scan),
  which merges what C2 and the shard daemons measured into the run's report
  (:meth:`~repro.core.sknn_base.SkNNRunReport.merge_remote`).  Shard
  daemons and the shard coordinator are configurations of this class: a
  shard answers ``transport.scan`` with its slice's encrypted distances, a
  coordinator runs the serial protocol with its scan scattered to them.

Result shares decrypted by C2 stay in its mailbox (keyed by delivery id)
until the query client fetches them over its *own* connection — C1 never
relays them, mirroring the paper's delivery step.

Shutdown is hardened for CI: ``serve_forever`` installs SIGTERM/SIGINT
handlers and an ``atexit`` hook that close the listening socket, persist
the ``--pool-cache`` and join every connection thread, so a test harness
never leaks processes or threads.
"""

from __future__ import annotations

import atexit
import logging
import signal
import socket
import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from random import Random
from typing import Any, Callable

from repro.analysis.cost_model import pool_targets, ssed_scan_cost
from repro.core.cloud import CloudC1, CloudC2, FederatedCloud
from repro.core.sknn_basic import SkNNBasic, packing_slots
from repro.core.sknn_base import SkNNProtocol, SkNNRunReport
from repro.core.sknn_secure import SkNNSecure
from repro.core.sknn_shard import ShardScanProtocol, shard_bounds
from repro.crypto.dgk import DGKPublicKey
from repro.crypto.paillier import (
    Ciphertext,
    OperationCounter,
    counting_scope,
)
from repro.crypto.precompute import (
    PrecomputeConfig,
    PrecomputeEngine,
    QueryLookahead,
)
from repro.crypto.serialization import (
    dgk_public_key_from_dict,
    payload_from_jsonable,
    payload_to_jsonable,
    private_key_from_dict,
    public_key_from_dict,
)
from repro.db.encrypted_table import EncryptedTable
from repro.exceptions import (
    ChannelError,
    ConfigurationError,
    CorruptStateError,
    DeadlineExceeded,
    PeerUnavailable,
    ReproError,
    SerializationError,
)
from repro.network.channel import Message
from repro.network.party import DecryptorParty
from repro.protocols.base import STATISTICAL_SECURITY
from repro.protocols.smin import SecureMinimum
from repro.resilience import durability
from repro.resilience.idempotency import ReplyCache
from repro.resilience.policy import is_retriable
from repro.telemetry import MetricsHTTPServer, SlowQueryLog
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry import profiling as telemetry_profiling
from repro.telemetry import tracing as telemetry_tracing
from repro.transport.framing import (
    deadline_at,
    recv_frame,
    send_frame,
    setup_stream_socket,
)
from repro.transport.mux import MuxChannel, MuxConnection, PeerPool
from repro.transport.wire import WireCodec

__all__ = ["PartyDaemon", "C1Daemon", "C2Daemon", "ShareMailbox",
           "parse_address", "RemotePrivateKey"]

logger = logging.getLogger("repro.transport")

#: how long a Bob client may wait for C2 to file a share before giving up
DEFAULT_FETCH_TIMEOUT = 60.0

#: default bound on every mid-protocol blocking read/write on the C1<->C2
#: peer channel (``--io-deadline`` overrides); a dead or wedged peer then
#: surfaces as a typed ``DeadlineExceeded`` instead of a hung query thread.
DEFAULT_IO_DEADLINE = 120.0


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (port 0 = let the OS pick)."""
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        raise ConfigurationError(
            f"invalid address {text!r}: expected HOST:PORT")
    return host, int(port_text)


class ShareMailbox:
    """Thread-safe store of decrypted result shares, keyed by delivery id.

    C2's delivery handler files shares here (through the party's
    ``share_sink`` hook); Bob clients fetch them over their own connection.
    Fetching removes the share — each is handed out exactly once.

    The exactly-once guarantee survives client retries through an optional
    *attempt token*: a fetch carrying a token memoizes the delivered share
    under ``(delivery_id, token)``, and a later fetch with the **same**
    token replays it (the client's reply was lost on the wire, not the
    share).  A fetch without a token, or with a different token, is a
    genuine second consumer and is still refused.

    With a :class:`~repro.resilience.durability.Journal` the contents
    survive a daemon crash: every transition — a share filed, a share
    consumed (with its attempt-token memo), an epoch change, a wipe — is
    journaled before it becomes visible, and the journal is replayed when
    the mailbox is built.  A C2 SIGKILLed between delivering a share and
    the client's fetch comes back with the share still pending, so the
    retried fetch (same attempt token) returns the bit-identical value.

    At most :attr:`PENDING_SHARES` shares wait: filing one more first drops
    the oldest pending share (journaled like any transition, counted in
    :attr:`dropped`), whose fetch then fails like that of an unknown id.
    """

    #: replay memo bound — ample for one client's retry window without
    #: letting a long-lived daemon accumulate decrypted shares.
    DELIVERED_MEMO = 32

    #: pending-share bound — far more than the clients' queries in flight,
    #: so only shares nobody fetches are dropped, and memory and journal
    #: stay bounded when Bob clients never fetch.
    PENDING_SHARES = 1024

    def __init__(self, journal: durability.Journal | None = None) -> None:
        self._shares: dict[int, list[list[int]]] = {}
        self._delivered: OrderedDict[tuple[int, str], list[list[int]]] = (
            OrderedDict())
        self._condition = threading.Condition()
        #: the C1 epoch whose delivery ids currently populate the mailbox
        self._epoch: str | None = None
        self._journal = journal
        for record in journal.open() if journal is not None else ():
            if isinstance(record, dict):
                self._apply(record)
        #: pending shares + delivered memos brought back by journal replay
        self.recovered = len(self._shares) + len(self._delivered)
        #: pending shares dropped over :attr:`PENDING_SHARES` by this process
        self.dropped = 0

    def put(self, delivery_id: int, masked_values: list[list[int]]) -> None:
        """File one share and wake anyone waiting for it — dropping the
        oldest pending share first when the mailbox is full."""
        with self._condition:
            if (delivery_id not in self._shares
                    and len(self._shares) >= self.PENDING_SHARES):
                self._transition(
                    {"op": "drop", "id": next(iter(self._shares))})
                self.dropped += 1
            self._transition(
                {"op": "put", "id": delivery_id, "share": masked_values})
            self._condition.notify_all()

    def fetch(self, delivery_id: int,
              timeout: float = DEFAULT_FETCH_TIMEOUT,
              attempt: str | None = None) -> list[list[int]]:
        """Wait for a share to arrive, pop it, and return it.

        ``attempt`` is the client's idempotency token: a replayed fetch
        with the same token returns the already-delivered share instead of
        failing, keeping retries safe without weakening single-use
        semantics for everyone else.
        """
        deadline = time.monotonic() + timeout
        with self._condition:
            if attempt is not None:
                replay = self._delivered.get((delivery_id, attempt))
                if replay is not None:
                    telemetry_metrics.get_registry().counter(
                        "repro_replayed_replies_total",
                        "Idempotent replays of already-served requests.",
                        ("cache",)).inc(cache="mailbox")
                    return replay
            while delivery_id not in self._shares:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlineExceeded(
                        f"no share filed under delivery id {delivery_id} "
                        f"within {timeout:.0f}s")
                # A timed-out wait still re-checks the predicate once: the
                # share may have been filed between the timeout firing and
                # the lock being reacquired.
                self._condition.wait(remaining)
            share = self._shares[delivery_id]
            self._transition(
                {"op": "take", "id": delivery_id, "attempt": attempt})
            return share

    def adopt_epoch(self, epoch: str | None) -> bool:
        """Align the mailbox with a connecting C1's delivery-id epoch.

        Delivery ids are minted by one C1 *process*; a different (or
        unknown) epoch means the counter started over, so every stored
        share could collide with a recycled id and must be dropped.  The
        same epoch reconnecting — a dropped link, not a restart — keeps
        pending shares fetchable.  Returns ``True`` when the mailbox
        content was kept.
        """
        with self._condition:
            if epoch is not None and epoch == self._epoch:
                return True
            self._transition({"op": "epoch", "epoch": epoch})
            self._condition.notify_all()
            return False

    def clear(self) -> None:
        """Drop every stored share (a new provisioning/C1 epoch began)."""
        with self._condition:
            self._transition({"op": "clear"})
            self._condition.notify_all()

    # -- transitions (caller locks; journal replay shares _apply) -----------
    def _transition(self, record: dict[str, Any]) -> None:
        """Journal ``record``, apply it, then compact from the new state."""
        if self._journal is not None:
            self._journal.append(record)
        self._apply(record)
        if self._journal is not None:
            self._journal.compact(self._live_records)

    def _apply(self, record: dict[str, Any]) -> None:
        operation = record.get("op")
        if operation == "put":
            self._shares[int(record["id"])] = record["share"]
        elif operation == "take":
            delivery_id, attempt = int(record["id"]), record.get("attempt")
            share = self._shares.pop(delivery_id, None)
            if share is not None and attempt is not None:
                self._delivered[(delivery_id, attempt)] = share
                while len(self._delivered) > self.DELIVERED_MEMO:
                    self._delivered.popitem(last=False)
        elif operation == "drop":
            self._shares.pop(int(record["id"]), None)
        elif operation in ("epoch", "clear"):
            self._epoch = record.get("epoch")  # a clear carries none
            self._shares.clear()
            self._delivered.clear()

    def _live_records(self) -> list[dict[str, Any]]:
        # Memos first: a put of a pending share must land after any memo
        # of an earlier share under the same id, or its take would pop it.
        records: list[dict[str, Any]] = []
        if self._epoch is not None:
            records.append({"op": "epoch", "epoch": self._epoch})
        for (delivery_id, attempt), share in self._delivered.items():
            records.append({"op": "put", "id": delivery_id, "share": share})
            records.append(
                {"op": "take", "id": delivery_id, "attempt": attempt})
        records.extend({"op": "put", "id": delivery_id, "share": share}
                       for delivery_id, share in self._shares.items())
        return records

    def close(self) -> None:
        """Close the journal handle (the state stays on disk for replay)."""
        if self._journal is not None:
            self._journal.close()

    @property
    def journal_records(self) -> int:
        """Records currently in the journal file (0 without a journal)."""
        return self._journal.records if self._journal is not None else 0

    def __len__(self) -> int:
        with self._condition:
            return len(self._shares)


class RemotePrivateKey:
    """Stand-in for the secret key on processes that must not hold it.

    The C1 daemon's view of C2 is a :class:`DecryptorParty` carrying this
    object: statistics plumbing (operation counters) works, but any attempt
    to actually decrypt fails loudly — the real key lives only in the C2
    process.
    """

    def __init__(self, public_key) -> None:
        self.public_key = public_key
        #: always-zero counter: remote decryptions are counted by the remote
        #: process.  The C1 daemon fetches C2's per-query cost rows over
        #: the ``telemetry.collect`` exchange and projects them into the
        #: run report, so distributed reports show real C2 columns.
        self.counter = OperationCounter()

    def __getattr__(self, name: str) -> Any:
        raise ConfigurationError(
            f"the private key is held by the remote C2 process "
            f"(attempted to use {name!r} locally)")


def _close_socket(sock: socket.socket) -> None:
    """Shut down and close, ignoring a socket that is already gone.

    ``shutdown`` first: ``close()`` from another thread does not wake a
    thread blocked in ``accept()``/``recv()`` on Linux, ``shutdown()`` does.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class PartyDaemon:
    """What both cloud parties share: listener, control plane, lifecycle.

    Never instantiated itself — ``repro party --role`` picks
    :class:`C1Daemon` or :class:`C2Daemon`, which add their party's state
    and nothing of the other's, and supply ``_provisioned()``,
    ``_provisioned_key_size(payload)`` (the ``K`` of the key a provision
    payload carries), ``_provision(payload, from_recovery)``,
    ``_peer_links()`` (the live multiplexed peer connections) and
    ``_close_role()``.

    Args:
        host: interface to listen on.
        port: TCP port (0 = ephemeral; see ``port_file``).
        port_file: when given, the bound ``host port`` is written there once
            listening — how a supervisor discovers ephemeral ports.
        pool_cache: path for persisting/reloading the party's precompute
            pools across restarts (loaded lazily when the engine is built,
            saved on clean shutdown).
        metrics_listen: ``HOST:PORT`` for a side HTTP listener serving
            ``/metrics`` (Prometheus text) and ``/stats`` (JSON); ``None``
            disables it.  Port 0 binds an ephemeral port, discoverable
            through ``transport.stats``.
        slow_query_seconds: wall-time threshold for the slow-query log
            (``None`` disables it).
        io_deadline: bound (seconds) on every mid-protocol blocking
            read/write on the C1↔C2 peer channel — a dead peer surfaces as
            a typed, retriable error instead of a hung query thread.
            ``None`` disables the bound.
        state_dir: when given, arms crash-consistent durability: the C2
            share mailbox and C1 reply cache journal every transition to
            disk (replayed on the next start), and a provision manifest
            lets a restarted daemon serve fetch/replay traffic without
            being re-provisioned.  ``None`` (the default) keeps all state
            in memory.
        profile: arm the always-on sampling profiler.
    """

    #: ``"c1"`` / ``"c2"`` — the wire and metrics label of the role class
    role = ""

    #: snapshot kind tag of the provision manifest
    MANIFEST_KIND = "party-provision-manifest"

    #: control tag -> name of the method answering it (role classes extend)
    CONTROL_STEPS: dict[str, str] = {
        "transport.ping": "_handle_ping",
        "transport.shutdown": "_handle_shutdown",
        "transport.provision": "_handle_provision",
        "transport.stats": "_handle_stats",
        "transport.metrics": "_handle_metrics",
        "transport.profile": "_handle_profile",
    }

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 port_file: str | Path | None = None,
                 pool_cache: str | Path | None = None,
                 metrics_listen: str | None = None,
                 slow_query_seconds: float | None = 1.0,
                 io_deadline: float | None = DEFAULT_IO_DEADLINE,
                 state_dir: str | Path | None = None,
                 profile: bool = False) -> None:
        self.party_name = self.role.upper()
        self.host = host
        self.port = port
        self.port_file = Path(port_file) if port_file is not None else None
        self.pool_cache = Path(pool_cache) if pool_cache is not None else None
        self.metrics_listen = metrics_listen
        self.io_deadline = io_deadline
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self._started_at = time.monotonic()
        self._manifest: Path | None = None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._manifest = self.state_dir / "manifest.json"
        self._metrics_server: MetricsHTTPServer | None = None
        self.slow_log = SlowQueryLog(threshold_seconds=slow_query_seconds)
        #: always-on sampling profiler (``--profile``); ``/profile`` and
        #: ``transport.profile`` fall back to an ephemeral sampler when off.
        self.profiler = (telemetry_profiling.SamplingProfiler()
                         if profile else None)
        self.codec = WireCodec()
        self.engine: PrecomputeEngine | None = None
        self.rng: Random | None = None
        self.distance_bits: int | None = None
        self._rng_lock = threading.Lock()

        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        self._state_lock = threading.Lock()
        self._stop = threading.Event()
        self._closed = False

    def _serve_peer(self, peer_kind: Any, sock: socket.socket, address: Any,
                    hello: Any) -> None:
        """Serve a non-client connection; only C2 accepts one (the cloud)."""
        raise ChannelError(f"unsupported peer kind {peer_kind!r}")

    def _journal(self, filename: str, name: str) -> durability.Journal | None:
        """The journal a store replays and appends to, under ``state_dir``."""
        if self.state_dir is None:
            return None
        return durability.Journal(self.state_dir / filename, name=name)

    def _count_recovered(self, kind: str, count: int) -> None:
        """Publish how much journaled state the restart brought back."""
        if not count:
            return
        telemetry_metrics.get_registry().counter(
            "repro_recovered_deliveries_total",
            "Mailbox shares and completed replies replayed from the "
            "durability journals after a restart.",
            ("role", "kind")).inc(count, role=self.role, kind=kind)
        logger.info("%s recovered %d %s journal entries from %s",
                    self.party_name, count, kind, self.state_dir)

    # -- durable provision manifest -------------------------------------------
    def _persist_manifest(self, payload: dict[str, Any]) -> None:
        """Snapshot the provision payload so a restart self-provisions."""
        path = self._manifest
        if path is None:
            return
        document = {"role": self.role,
                    "payload": payload_to_jsonable(payload)}
        durability.write_snapshot(path, self.MANIFEST_KIND, document)
        logger.info("%s persisted its provision manifest to %s",
                    self.party_name, path)

    def _recover_state(self) -> None:
        """Self-provision from the manifest left by a previous incarnation.

        Runs before the accept loop, so by the time the port is
        discoverable the daemon already serves fetch/replay traffic (C2:
        recovered mailbox + key; C1: reply cache + table) without anyone
        re-shipping the provision payloads.  A corrupt manifest is
        rejected — logged and ignored, never a startup crash.  C1 does not
        dial its peer here: the link comes up lazily on the first query,
        because C2 may itself still be restarting.
        """
        path = self._manifest
        if path is None:
            return
        try:
            document = durability.read_snapshot(path, self.MANIFEST_KIND)
        except CorruptStateError as exc:
            logger.warning("ignoring corrupt provision manifest: %s", exc)
            return
        if document is None:
            return
        if document.get("role") != self.role:
            logger.warning("ignoring manifest for role %r (this is %s)",
                           document.get("role"), self.role)
            return
        payload = payload_from_jsonable(document.get("payload"), None)
        try:
            self._handle_provision(payload, from_recovery=True)
        except ReproError as exc:
            logger.warning("manifest recovery failed: %s", exc)
            return
        logger.info("%s re-provisioned itself from %s", self.party_name, path)

    # -- lifecycle ------------------------------------------------------------
    def bind(self) -> tuple[str, int]:
        """Bind the listening socket; returns the actual ``(host, port)``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        if self.port_file is not None:
            temporary = self.port_file.with_name(self.port_file.name + ".tmp")
            temporary.write_text(f"{self.host} {self.port}\n")
            temporary.replace(self.port_file)
        logger.info("%s daemon listening on %s:%d",
                    self.party_name, self.host, self.port)
        return self.host, self.port

    def start(self) -> None:
        """Bind (if needed) and start the accept loop in the background.

        With a ``state_dir``, manifest recovery runs first — before the
        port file is written — so clients that discover the address never
        observe a half-recovered daemon.
        """
        if not self._provisioned():
            self._recover_state()
        if self._listener is None:
            self.bind()
        if self.profiler is not None:
            self.profiler.start()
            logger.info("%s daemon sampling profiler armed (%.0f Hz)",
                        self.party_name, 1.0 / self.profiler.interval)
        if self.metrics_listen is not None and self._metrics_server is None:
            self._metrics_server = MetricsHTTPServer(
                self.metrics_listen, extra_stats=self._handle_stats,
                profiler=self.profiler).start()
            logger.info("%s daemon metrics at %s/metrics",
                        self.party_name, self._metrics_server.url)
        telemetry_metrics.get_registry().add_collector(self._collect_metrics)
        accept_thread = threading.Thread(
            target=self._accept_loop, name=f"sknn-{self.role}-accept",
            daemon=True)
        accept_thread.start()
        self._threads.append(accept_thread)

    def _collect_metrics(self,
                         registry: telemetry_metrics.MetricsRegistry) -> None:
        """Scrape-time collector mirroring daemon state into the registry
        (role classes add the gauges over their own state)."""
        role = self.role
        public_key = self.codec.public_key
        if public_key is not None:
            operations = self._operations_gauge(registry)
            for op, value in public_key.counter.snapshot().items():
                operations.set(value, party=role, op=op)
        if self.engine is not None:
            stats = self.engine.stats()
            pools = registry.gauge(
                "repro_pool_items", "Precompute pool fill level.",
                ("role", "pool"))
            for pool, remaining in stats["remaining"].items():
                pools.set(remaining, role=role, pool=pool)
            hits = registry.gauge(
                "repro_pool_requests", "Precompute pool takes served.",
                ("role", "outcome"))
            hits.set(stats["obfuscator_hits"], role=role, outcome="hit")
            hits.set(stats["obfuscator_misses"], role=role, outcome="miss")
        links = self._peer_links()
        if links:
            traffic = self._peer_traffic_total(links)
            wire = registry.gauge(
                "repro_wire", "Cloud-to-cloud traffic on the peer link.",
                ("role", "unit"))
            wire.set(traffic.bytes_transferred, role=role, unit="bytes")
            wire.set(traffic.messages, role=role, unit="messages")
            wire.set(traffic.ciphertexts, role=role, unit="ciphertexts")

    @staticmethod
    def _operations_gauge(registry: telemetry_metrics.MetricsRegistry):
        return registry.gauge(
            "repro_crypto_operations",
            "Cumulative Paillier operations performed by this party.",
            ("party", "op"))

    @staticmethod
    def _peer_traffic_total(links: list[MuxConnection]):
        """Merged traffic across every peer connection."""
        total = links[0].total_traffic()
        for link in links[1:]:
            total = total.merged_with(link.total_traffic())
        return total

    def serve_forever(self) -> None:
        """Run until SIGTERM/SIGINT or a ``transport.shutdown`` request.

        Installs the hardening hooks: signal handlers and an ``atexit``
        fallback both route into :meth:`close`, so the listening socket is
        released and the pool cache saved no matter how the process exits.
        """
        def _terminate(signum, frame):  # pragma: no cover - signal path
            logger.info("%s daemon received signal %d, shutting down",
                        self.party_name, signum)
            self._stop.set()

        signal.signal(signal.SIGTERM, _terminate)
        signal.signal(signal.SIGINT, _terminate)
        atexit.register(self.close)
        self.start()
        try:
            while not self._stop.is_set():
                self._stop.wait(0.2)
        finally:
            self.close()

    def close(self) -> None:
        """Release every resource (idempotent; safe from signals/atexit)."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        telemetry_metrics.get_registry().remove_collector(
            self._collect_metrics)
        if self.profiler is not None:
            self.profiler.stop()
        if self._metrics_server is not None:
            self._metrics_server.close()
            self._metrics_server = None
        if self._listener is not None:
            _close_socket(self._listener)
        if self.engine is not None and self.pool_cache is not None:
            try:
                saved = self.engine.save_pools(self.pool_cache)
                logger.info("%s daemon saved %d pool items to %s",
                            self.party_name, saved, self.pool_cache)
            except OSError as exc:  # pragma: no cover - disk trouble
                logger.warning("could not save pool cache: %s", exc)
        self._close_role()
        with self._state_lock:
            connections = list(self._connections)
        for sock in connections:
            _close_socket(sock)
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)
        logger.info("%s daemon closed", self.party_name)

    # -- accept/dispatch ------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                sock, address = self._listener.accept()
            except OSError:
                break  # listener closed by shutdown
            try:
                setup_stream_socket(sock)
            except OSError:
                _close_socket(sock)  # reset before it was ever served
                continue
            with self._state_lock:
                self._connections.add(sock)
            thread = threading.Thread(
                target=self._serve_connection, args=(sock, address),
                name=f"sknn-{self.role}-conn", daemon=True)
            thread.start()
            # Prune finished handlers so a long-lived daemon's thread list
            # (and close()'s join loop) stays bounded by live connections.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)

    def _serve_connection(self, sock: socket.socket, address: Any) -> None:
        try:
            hello = self._read_message(sock)
            if hello is None or hello.tag != "transport.hello":
                raise ChannelError("connection did not start with a hello")
            peer_kind = hello.payload.get("peer") if isinstance(
                hello.payload, dict) else None
            if peer_kind == "client":
                self._send_message(sock, "transport.hello_ok",
                                   {"role": self.role,
                                    "provisioned": self._provisioned()})
                self._serve_client(sock)
            else:
                self._serve_peer(peer_kind, sock, address, hello.payload)
        except ChannelError as exc:
            logger.debug("connection from %s ended: %s", address, exc)
        except Exception:  # pragma: no cover - unexpected
            logger.exception("connection handler crashed")
        finally:
            _close_socket(sock)
            with self._state_lock:
                self._connections.discard(sock)

    # -- low-level framing helpers -------------------------------------------
    def _read_message(self, sock: socket.socket) -> Message | None:
        body = recv_frame(sock)
        if body is None:
            return None
        return self.codec.decode_message(body)

    def _send_message(self, sock: socket.socket, tag: str,
                      payload: Any) -> None:
        message = Message(sender=self.party_name, recipient="client",
                          tag=tag, payload=payload)
        send_frame(sock, self.codec.encode_message(message))

    def _send_error(self, sock: socket.socket, error: Exception) -> None:
        """Send a *typed* ``transport.error`` frame.

        The payload carries the error class name and retriability so the
        client can reconstruct the right exception type and its retry layer
        can decide without string matching.
        """
        self._send_message(sock, "transport.error", {
            "type": type(error).__name__,
            "message": str(error),
            "retriable": is_retriable(error),
        })

    def _derive_rng(self) -> Random | None:
        if self.rng is None:
            return None
        # Concurrent contexts derive their stream rngs from the shared
        # provision seed; the lock keeps getrandbits itself race-free.
        with self._rng_lock:
            return Random(self.rng.getrandbits(63))

    def _build_engine(self, key: Any, precompute: dict[str, Any] | None,
                      party: int, packing: tuple[int, int] = (1, 1)) -> int:
        """Build/warm this party's engine on its own ``key`` (C2's private
        key, so its refills take CRT); reload the pool cache first.

        ``precompute`` is the provisioned load; the pool covers this
        party's (``party`` 0 for C1, 1 for C2) encryptions of that many
        queries in the cost model (:func:`~repro.analysis.cost_model.
        pool_targets`) at the scan's ``packing`` (:func:`~repro.core.
        sknn_basic.packing_slots`; C2's encryptions do not depend on it).
        """
        if not precompute:
            return 0
        ssed_slots, distance_slots = packing
        target = pool_targets(
            precompute["n_records"], precompute["dimensions"],
            precompute["k"], precompute["queries"],
            bit_length=precompute.get("sbd_bit_length"),
            ssed_slots=ssed_slots, distance_slots=distance_slots)[party]
        self.engine = PrecomputeEngine(
            key, rng=self._derive_rng(),
            config=PrecomputeConfig(obfuscators=target))
        loaded = 0
        if self.pool_cache is not None and self.pool_cache.exists():
            try:
                loaded = self.engine.load_pools(self.pool_cache)
                logger.info("%s reloaded %d pool items from %s",
                            self.party_name, loaded, self.pool_cache)
            except ConfigurationError as exc:
                logger.warning("ignoring pool cache: %s", exc)
        self.engine.warm()
        return loaded

    # -- client control protocol ----------------------------------------------
    def _serve_client(self, sock: socket.socket) -> None:
        while not self._stop.is_set():
            message = self._read_message(sock)
            if message is None:
                break
            try:
                reply = self._handle_control(message)
            except ReproError as exc:
                self._send_error(sock, exc)
                continue
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                # A malformed payload (missing field, wrong shape or value —
                # e.g. a version-skewed client) earns a non-retriable error
                # frame, not a dropped connection the client would retry on.
                self._send_error(sock, ChannelError(
                    f"malformed {message.tag!r} payload: {exc!r}"))
                continue
            self._send_message(sock, message.tag + ".ok", reply)
            if message.tag == "transport.shutdown":
                self._stop.set()
                break

    def _handle_control(self, message: Message) -> Any:
        """Answer one control request through the class's step table."""
        step = self.CONTROL_STEPS.get(message.tag)
        if step is None:
            raise ChannelError(
                f"unsupported control tag {message.tag!r} "
                f"for role {self.role!r}")
        return getattr(self, step)(message.payload)

    def _handle_ping(self, payload: Any) -> dict[str, Any]:
        return {"role": self.role, "provisioned": self._provisioned(),
                "uptime_seconds": time.monotonic() - self._started_at,
                "io_deadline": self.io_deadline}

    def _handle_shutdown(self, payload: Any) -> dict[str, Any]:
        logger.info("%s daemon shutting down on client request",
                    self.party_name)
        return {"role": self.role}

    def _handle_metrics(self, payload: Any) -> dict[str, Any]:
        registry = telemetry_metrics.get_registry()
        return {"role": self.role,
                "prometheus": registry.render_prometheus(),
                "snapshot": registry.snapshot()}

    def _handle_profile(self, payload: Any) -> dict[str, Any]:
        seconds = 1.0
        if isinstance(payload, dict) and "seconds" in payload:
            seconds = float(payload["seconds"])
        result = telemetry_profiling.profile_window(
            self.profiler, seconds, max_seconds=30.0)
        result["role"] = self.role
        return result

    def _handle_stats(self, payload: Any = None) -> dict[str, Any]:
        """The ``transport.stats`` / ``/stats`` document.

        Both roles publish the same keys: the entries describing the other
        party's state (C1 has no mailbox, C2 no reply cache or in-flight
        queries) stay at their zero, each role class fills in its own.
        """
        links = self._peer_links()
        stats: dict[str, Any] = {
            "role": self.role,
            "provisioned": self._provisioned(),
            "pending_shares": 0,
            "inflight_queries": 0,
            "resilience": {
                "uptime_seconds": time.monotonic() - self._started_at,
                "io_deadline": self.io_deadline,
                "reply_cache_entries": 0,
                "peer_connected": any(link.alive for link in links),
                "events": self._resilience_events(),
            },
        }
        if self.state_dir is not None:
            stats["durability"] = {
                "state_dir": str(self.state_dir),
                "mailbox_journal_records": 0,
                "reply_journal_records": 0,
                "recovered_shares": 0,
                "recovered_replies": 0,
                "manifest": self._manifest.exists(),
            }
        if self._metrics_server is not None:
            stats["metrics_address"] = self._metrics_server.url
        if self.profiler is not None:
            stats["profiler"] = {
                "running": self.profiler.running,
                "interval": self.profiler.interval,
                "samples": self.profiler.samples,
            }
        if self.engine is not None:
            stats["engine"] = self.engine.stats()
        if links:
            traffic = self._peer_traffic_total(links)
            stats["traffic"] = traffic.snapshot()
            stats["traffic_by_tag"] = traffic.per_tag_snapshot()
            stats["peer_connections"] = [
                dict(link.total_traffic().snapshot(),
                     index=index, alive=link.alive,
                     active_contexts=link.active_contexts())
                for index, link in enumerate(links)]
        slow = self.slow_log.snapshot()
        if slow["total_slow"]:
            stats["slow_queries"] = slow
        return stats

    @staticmethod
    def _resilience_events() -> dict[str, float]:
        """Nonzero totals of this process's resilience counters."""
        families = ("repro_retries_total", "repro_deadline_hits_total",
                    "repro_reconnects_total", "repro_replayed_replies_total",
                    "repro_daemon_restarts_total",
                    "repro_chaos_faults_total",
                    "repro_journal_records_total",
                    "repro_recovered_deliveries_total",
                    "repro_chunk_retries_total")
        snapshot = telemetry_metrics.get_registry().snapshot()
        events = {}
        for family in families:
            entry = snapshot.get(family)
            if entry:
                total = sum(entry.get("values", {}).values())
                if total:
                    events[family] = total
        return events

    def _handle_provision(self, payload: dict[str, Any],
                          from_recovery: bool = False) -> dict[str, Any]:
        """Install a provision payload.

        ``from_recovery`` marks a replay of the persisted manifest at
        startup: the durable caches just replayed their journals, so the
        epoch wipes a *client-initiated* provision performs (reply cache,
        mailbox) are skipped — wiping here would throw away exactly the
        state the restart is trying to recover — and the manifest is not
        re-persisted.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError("malformed provision payload")
        distance_bits = payload.get("distance_bits")
        key_size = self._provisioned_key_size(payload)
        if distance_bits is not None and not (
                type(distance_bits) is int and distance_bits > 0
                and SecureMinimum.domain_fits(distance_bits + 1, key_size)):
            # C2 builds SkNN_m for every peer context from l, so a too-wide
            # l must be refused here, not on the first query's worker.
            raise ConfigurationError(
                f"distance_bits={distance_bits!r} is not a positive l that "
                f"SMIN can compare under a {key_size}-bit key "
                f"(2^(l+2+{STATISTICAL_SECURITY}) <= N)")
        seed = payload.get("seed")
        self.rng = Random(seed) if seed is not None else None
        self.distance_bits = distance_bits
        reply = self._provision(payload, from_recovery)
        if not from_recovery:
            self._persist_manifest(payload)
        return reply


class C2Daemon(PartyDaemon):
    """The key-holding cloud: ``sk``, the share mailbox, P2 step dispatch.

    Serves the cloud-peer connections C1 (and its shards) dial — every
    leased context gets a worker thread running the registered P2 step
    handlers — and hands decrypted result shares to Bob's clients.  Holds
    no table and runs no query of its own.
    """

    role = "c2"

    CONTROL_STEPS = dict(PartyDaemon.CONTROL_STEPS, **{
        "transport.fetch_share": "_handle_fetch_share",
    })

    def __init__(self, **options: Any) -> None:
        super().__init__(**options)
        self._private_key = None
        self.mailbox = ShareMailbox(self._journal("mailbox.journal",
                                                  "mailbox"))
        self._count_recovered("share", self.mailbox.recovered)
        #: accepted cloud-peer connections, for stats and shutdown
        self._links: list[MuxConnection] = []

    def _provisioned(self) -> bool:
        return self._private_key is not None

    def _provisioned_key_size(self, payload: dict[str, Any]) -> int:
        return private_key_from_dict(
            payload["private_key"]).public_key.key_size

    def _provision(self, payload: dict[str, Any],
                   from_recovery: bool) -> dict[str, Any]:
        self._private_key = private_key_from_dict(payload["private_key"])
        self.codec.public_key = self._private_key.public_key
        if not from_recovery:
            self.mailbox.clear()  # new provisioning epoch: drop stale shares
        loaded = self._build_engine(self._private_key,
                                    payload.get("precompute"), party=1)
        logger.info("C2 provisioned (key %d bits, l=%s)",
                    self.codec.public_key.key_size, self.distance_bits)
        return {"role": "c2", "pool_items_loaded": loaded}

    def _handle_fetch_share(self, payload: dict[str, Any]) -> Any:
        return self.mailbox.fetch(
            payload["delivery_id"],
            timeout=payload.get("timeout", DEFAULT_FETCH_TIMEOUT),
            attempt=payload.get("attempt"))

    def _peer_links(self) -> list[MuxConnection]:
        with self._state_lock:
            return list(self._links)

    def _handle_stats(self, payload: Any = None) -> dict[str, Any]:
        stats = super()._handle_stats()
        stats["pending_shares"] = len(self.mailbox)
        stats["dropped_shares"] = self.mailbox.dropped
        if "durability" in stats:
            stats["durability"].update(
                mailbox_journal_records=self.mailbox.journal_records,
                recovered_shares=self.mailbox.recovered)
        return stats

    def _collect_metrics(self,
                         registry: telemetry_metrics.MetricsRegistry) -> None:
        super()._collect_metrics(registry)
        registry.gauge(
            "repro_pending_shares",
            "Decrypted result shares waiting in the C2 mailbox.",
            ("role",)).set(len(self.mailbox), role=self.role)
        if self._private_key is not None:
            self._operations_gauge(registry).set(
                self._private_key.counter.snapshot()["decryptions"],
                party=self.role, op="decryptions")

    def _close_role(self) -> None:
        for link in self._peer_links():
            link.close()
        self.mailbox.close()

    # -- the C1<->C2 protocol link ---------------------------------------------
    def _serve_peer(self, peer_kind: Any, sock: socket.socket, address: Any,
                    hello: Any) -> None:
        """Demultiplex one cloud-peer socket into per-query dispatch workers.

        The connection thread becomes the socket's reader: every frame is
        routed by its context id to a :class:`MuxChannel`, and each new
        context spawns a worker thread running the P2 dispatch loop over
        that channel alone — N pipelined queries from C1 execute their C2
        steps concurrently.  Frames without a context land on the ``None``
        context and are served identically.
        """
        if peer_kind != "cloud":
            return super()._serve_peer(peer_kind, sock, address, hello)
        if self._private_key is None:
            self._send_message(sock, "transport.error",
                               "C2 is not provisioned yet")
            raise ChannelError("peer connected before provisioning")
        self._send_message(sock, "transport.hello_ok", {"role": self.role})
        workers: list[threading.Thread] = []
        workers_lock = threading.Lock()

        def on_new_context(channel: MuxChannel) -> None:
            worker = threading.Thread(
                target=self._serve_peer_context, args=(channel,),
                name=f"sknn-c2-ctx-{channel.context}", daemon=True)
            with workers_lock:
                # C1 leases a fresh context per run, so this list would
                # otherwise keep one finished Thread (~2 kB) per answered
                # query for the life of the connection; pruned, it is
                # bounded by the live contexts ``/stats`` publishes as
                # ``active_contexts``.
                workers[:] = [w for w in workers if w.is_alive()]
                workers.append(worker)
            worker.start()

        mux = MuxConnection(sock, self.codec, "C2", "C1",
                            io_deadline=self.io_deadline,
                            on_new_context=on_new_context)
        with self._state_lock:
            self._links.append(mux)
        # Delivery ids are minted per C1 *process*: a peer hello carrying a
        # new epoch means the id counter started over, so stale shares must
        # never be fetchable under a recycled id.  The same epoch
        # re-dialling — a dropped link, another connection of the same
        # C1's pool, or this daemon restarting under a durable mailbox —
        # keeps pending shares fetchable.  Shard daemons carry no epoch
        # (they never deliver) and leave the mailbox alone.
        epoch = hello.get("epoch")
        if epoch is not None and not self.mailbox.adopt_epoch(epoch):
            logger.info("C2 reset its mailbox for C1 epoch %s", epoch)
        logger.info("cloud peer connected from %s", address)
        try:
            mux.serve()  # runs until the socket dies or shutdown closes it
        finally:
            with self._state_lock:
                if mux in self._links:
                    self._links.remove(mux)
            with workers_lock:
                pending = list(workers)
            for worker in pending:
                worker.join(timeout=5.0)
        logger.info("cloud peer from %s disconnected", address)

    def _serve_peer_context(self, channel: MuxChannel) -> None:
        """Dispatch one query context's frames to the P2 step handlers.

        Runs on its own worker thread inside a *counting scope*: every
        Paillier operation this thread performs tees into a private
        counter, so the per-query telemetry exchange reports exact C2
        deltas even with other contexts decrypting concurrently.

        The telemetry window is this context's own: C1 leases a context per
        run and brackets the run's frames with ``telemetry.trace_begin``
        (payload: trace id), which opens the window by constructing a
        :class:`~repro.telemetry.profiling.CostLedger` over the scope — its
        construction-time snapshot *is* the counter-delta window — and
        ``telemetry.collect``, which closes it (:meth:`_collect_window`).
        """
        scope = OperationCounter()
        ledger: telemetry_profiling.CostLedger | None = None
        registry = self._build_p2_registry(channel)
        tracer = telemetry_tracing.get_tracer()
        steps = telemetry_metrics.get_registry().counter(
            "repro_p2_steps_total",
            "Protocol frames dispatched to P2 step handlers.", ("tag",))
        with counting_scope(scope):
            while not self._stop.is_set():
                try:
                    tag = channel.next_tag()
                except ChannelError:
                    break  # context closed or connection died
                if tag.startswith("telemetry."):
                    # Control frames from C1's telemetry layer — never
                    # routed to protocol handlers.
                    try:
                        trace_id = str(channel.receive("C2"))
                        if tag == "telemetry.trace_begin":
                            extras = ({"pool_hits": self.engine.pool_hit_total}
                                      if self.engine is not None else None)
                            ledger = telemetry_profiling.CostLedger(
                                sources=(scope,), extras=extras, party="C2")
                        elif tag == "telemetry.collect":
                            self._collect_window(channel, trace_id, ledger)
                            ledger = None
                        else:
                            raise ChannelError(
                                f"unknown telemetry frame {tag!r}")
                    except ReproError as exc:
                        logger.warning("telemetry frame %s failed: %s",
                                       tag, exc)
                    continue
                handler = registry.get(tag)
                if handler is None:
                    channel.receive("C2")  # consume the unroutable frame
                    try:
                        channel.send(
                            "C2", f"no P2 step registered for tag {tag!r}",
                            tag="transport.error")
                    except ChannelError:
                        break
                    continue
                try:
                    # The envelope's trace context parents this handler's
                    # span under the C1-side span that sent the frame.
                    with tracer.remote_span(f"p2.{tag}", channel.next_trace(),
                                            party="C2"):
                        if ledger is not None:
                            # Activate per dispatch: C2's idle wait time
                            # between frames never counts.
                            with ledger.activate(), \
                                    telemetry_profiling.cost_scope(
                                        tag.split(".", 1)[0], party="C2"):
                                handler()
                        else:
                            handler()
                    steps.inc(tag=tag)
                except (ReproError, TypeError, ValueError, KeyError,
                        IndexError, AttributeError) as exc:
                    # A typed protocol failure, or a malformed frame on a
                    # handler that does not shape-check its payload.  Either
                    # way: unblock the C1 driver instead of leaving it
                    # waiting on a reply frame that will never come, and
                    # keep this context's worker alive.
                    reason = (str(exc) if isinstance(exc, ReproError)
                              else repr(exc))
                    logger.warning("P2 step %s failed: %s", tag, reason)
                    try:
                        channel.send("C2",
                                     f"P2 step {tag!r} failed: {reason}",
                                     tag="transport.error")
                    except ChannelError:
                        break  # the peer that caused the failure is gone

    @staticmethod
    def _collect_window(channel: MuxChannel, trace_id: str,
                        ledger: "telemetry_profiling.CostLedger | None"
                        ) -> None:
        """Close a run's telemetry window and ship it to the C1 side.

        The reply carries every finished span of the trace and the ledger's
        per-phase cost rows — C2's one record of its operations, from which
        the C1 side derives the report's ``c2_*`` columns.
        """
        cost_rows: list[dict[str, Any]] = []
        if ledger is not None:
            cost_rows = ledger.finish()
            telemetry_profiling.record_phase_metrics(cost_rows)
        spans = [span.as_payload()
                 for span in telemetry_tracing.get_tracer().take(trace_id)]
        channel.send("C2", {"spans": spans, "cost": cost_rows},
                     tag="telemetry.collect")

    def _build_p2_registry(
            self, channel: MuxChannel) -> dict[str, Callable[[], Any]]:
        """Construct C2's protocol stack over ``channel`` and index its steps."""
        assert self._private_key is not None
        public_key = self._private_key.public_key
        c1_stub = CloudC1(public_key, channel, rng=self._derive_rng())
        c2 = CloudC2(self._private_key, channel, rng=self._derive_rng())
        c2.share_sink = self.mailbox.put
        cloud = FederatedCloud(c1=c1_stub, c2=c2, channel=channel)
        if self.engine is not None:
            cloud.attach_engine(None, self.engine)
        protocols: list[Any] = [SkNNBasic(cloud)]
        if self.distance_bits is not None:
            protocols.append(SkNNSecure(cloud,
                                        distance_bits=self.distance_bits))
        registry: dict[str, Callable[[], Any]] = {}
        for protocol in protocols:
            registry.update(protocol.collect_p2_handlers())
        return registry


class C1Daemon(PartyDaemon):
    """The table-holding cloud: ``Epk(T)``, the peer pool, the query runner.

    One class serves the three C1 placements: a plain C1, a *shard*
    (``shard_index``/``shard_count``: holds one slice and answers only
    ``transport.scan``) and a *coordinator* (provisioned with shard
    addresses: scatters the scan, selects and delivers as a plain C1 does).
    Holds only the public key — no mailbox, no P2 dispatch.

    Args:
        peer_connections: how many persistent multiplexed connections to
            keep to C2 — pipelining comes from per-query contexts either
            way, extra connections spread the socket-level send
            serialization.
        shard_index, shard_count: shard identity of a shard daemon (both or
            neither); the provision payload must agree.
    """

    role = "c1"

    CONTROL_STEPS = dict(PartyDaemon.CONTROL_STEPS, **{
        "transport.query": "_handle_query",
        "transport.scan": "_handle_scan",
    })

    def __init__(self, peer_connections: int = 1,
                 shard_index: int | None = None,
                 shard_count: int | None = None, **options: Any) -> None:
        if (shard_index is None) != (shard_count is None):
            raise ConfigurationError(
                "--shard-index and --shard-count go together")
        if shard_index is not None and not (
                0 <= shard_index < (shard_count or 0)):
            raise ConfigurationError(
                f"shard_index {shard_index} out of range for "
                f"{shard_count} shards")
        super().__init__(**options)
        self.peer_connections = max(int(peer_connections), 1)
        self.shard_index = shard_index
        self.shard_count = shard_count
        #: this process's delivery-id epoch: sent in the cloud hello so C2
        #: wipes its mailbox exactly when the id counter restarted, not on
        #: every reconnect of the same process.  Shard daemons never mint
        #: delivery ids, so they carry no epoch and their hellos leave the
        #: coordinator's mailbox alone.
        self.epoch = uuid.uuid4().hex if shard_index is None else None
        # Idempotent replay of completed query replies,
        # keyed by the request's id (see _handle_query).  With a state
        # dir, completed replies are journaled and survive a crash: a
        # retried id after a restart replays from disk.
        self._reply_cache = ReplyCache(
            name="c1-query", journal=self._journal("replies.journal",
                                                   "c1-query"))
        self._count_recovered("reply", self._reply_cache.recovered)
        self._peer_pool: PeerPool | None = None
        # Provisioned inputs kept so a failed peer link can be re-dialled
        # and the protocol stack rebuilt without a client re-provision.
        self._table: EncryptedTable | None = None
        #: SMIN's DGK public key, handed over at provisioning (SkNN_m only)
        self._dgk_key: DGKPublicKey | None = None
        #: a provisioned engine's DGK counterpart (warm re-randomizers)
        self.dgk_engine: PrecomputeEngine | None = None
        self._c2_address: tuple[str, int] | None = None
        #: coordinator mode: addresses of the C1 shard daemons to scatter to
        self._shard_addresses: list[tuple[str, int]] | None = None
        #: shard mode: this slice's global start index (from provisioning)
        self._start_index = 0
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    def _provisioned(self) -> bool:
        # The table is the provisioned state; the peer link may be down
        # between queries (it is re-dialled on demand by _ensure_pool).
        return self._table is not None

    def _provisioned_key_size(self, payload: dict[str, Any]) -> int:
        return public_key_from_dict(
            payload["encrypted_table"]["public_key"]).key_size

    def _provision(self, payload: dict[str, Any],
                   from_recovery: bool) -> dict[str, Any]:
        if not from_recovery:
            # New provisioning epoch: replies memoized against the previous
            # table/key must never be replayed to post-provision retries.
            self._reply_cache.clear()
        table = EncryptedTable.from_dict(payload["encrypted_table"])
        host, port = payload["c2_address"]
        shard_index = payload.get("shard_index")
        shard_count = payload.get("shard_count")
        if self.shard_index is not None:
            if (shard_index, shard_count) != (self.shard_index,
                                              self.shard_count):
                raise ConfigurationError(
                    f"provision payload is for shard "
                    f"{shard_index}/{shard_count}, this daemon was started "
                    f"as shard {self.shard_index}/{self.shard_count}")
        elif shard_index is not None:
            raise ConfigurationError(
                "shard provision sent to a C1 daemon started without "
                "--shard-index/--shard-count")
        dgk_key = payload.get("dgk_public_key")
        if dgk_key is not None:
            try:
                dgk_key = dgk_public_key_from_dict(
                    dgk_key, parent=table.public_key.counter)
            except SerializationError as exc:
                raise ConfigurationError(
                    f"malformed dgk_public_key: {exc}") from exc
        self.codec.public_key = table.public_key
        self._table = table
        self._dgk_key = dgk_key
        self._c2_address = (host, int(port))
        self._start_index = int(payload.get("start_index", 0))
        shards = payload.get("shards")
        self._shard_addresses = ([(shard_host, int(shard_port))
                                  for shard_host, shard_port in shards]
                                 if shards else None)
        with self._state_lock:
            pool, self._peer_pool = self._peer_pool, None
        if pool is not None:
            pool.close()  # new provisioning epoch: drop the old peer links
        loaded = self._build_engine(
            self.codec.public_key, payload.get("precompute"), party=0,
            packing=packing_slots(table.public_key.key_size, table.schema))
        self.dgk_engine = (
            self._warm_dgk_engine(dgk_key, payload.get("precompute"))
            if dgk_key is not None else None)
        if not from_recovery:
            self._ensure_pool().ensure()
        logger.info("C1%s provisioned (%d records, %d dims, peer %s:%d%s%s)",
                    "" if self.shard_index is None
                    else f" shard {self.shard_index}/{self.shard_count}",
                    len(table), table.dimensions, host, port,
                    "; peer dial deferred" if from_recovery else "",
                    "" if not self._shard_addresses
                    else f"; coordinating {len(self._shard_addresses)} shards")
        reply = {"role": "c1", "pool_items_loaded": loaded}
        if self.shard_index is not None:
            reply["shard_index"] = self.shard_index
        if self._shard_addresses is not None:
            reply["shards"] = len(self._shard_addresses)
        return reply

    def _warm_dgk_engine(self, dgk_key: DGKPublicKey,
                         precompute: dict[str, Any] | None
                         ) -> PrecomputeEngine | None:
        """A warmed engine of C1's DGK re-randomizers beside the provisioned
        Paillier one: SkNN_m's per query in the cost model, times the
        provisioned queries (``pool_targets(..., dgk=True)``)."""
        if not precompute or not precompute.get("sbd_bit_length"):
            return None
        target = pool_targets(
            precompute["n_records"], precompute["dimensions"],
            precompute["k"], precompute["queries"],
            bit_length=precompute["sbd_bit_length"], dgk=True)[0]
        engine = PrecomputeEngine(dgk_key, rng=self._derive_rng(),
                                  config=PrecomputeConfig(obfuscators=target))
        engine.warm()
        return engine

    def _peer_links(self) -> list[MuxConnection]:
        pool = self._peer_pool
        return pool.connections() if pool is not None else []

    def _handle_stats(self, payload: Any = None) -> dict[str, Any]:
        stats = super()._handle_stats()
        with self._inflight_lock:
            stats["inflight_queries"] = self._inflight
        stats["resilience"]["reply_cache_entries"] = len(self._reply_cache)
        stats["peer_connections_target"] = self.peer_connections
        if self.shard_index is not None:
            stats["shard"] = {"index": self.shard_index,
                              "count": self.shard_count,
                              "start_index": self._start_index}
        if self._shard_addresses is not None:
            stats["shards"] = [f"{host}:{port}"
                               for host, port in self._shard_addresses]
        if "durability" in stats:
            stats["durability"].update(
                reply_journal_records=self._reply_cache.journal_records,
                recovered_replies=self._reply_cache.recovered)
        return stats

    def _collect_metrics(self,
                         registry: telemetry_metrics.MetricsRegistry) -> None:
        super()._collect_metrics(registry)
        with self._inflight_lock:
            inflight = self._inflight
        registry.gauge(
            "repro_inflight_queries",
            "Queries currently executing on this daemon.",
            ("role",)).set(inflight, role=self.role)

    def _close_role(self) -> None:
        if self._peer_pool is not None:
            self._peer_pool.close()
        self._reply_cache.close()

    # -- peer link management ---------------------------------------------------
    def _dial_peer_connection(self) -> MuxConnection:
        """Dial C2, complete the cloud-peer hello, start the reader.

        Every failure — refused connection, silence, a rejection frame
        (e.g. a restarted C2 that has not been re-provisioned yet) — maps
        to retriable :class:`PeerUnavailable`: the caller's retry layer
        re-provisions and tries again.
        """
        assert self._c2_address is not None
        host, port = self._c2_address
        try:
            peer_sock = setup_stream_socket(
                socket.create_connection((host, port), timeout=10))
        except OSError as exc:
            raise PeerUnavailable(
                f"cannot reach C2 at {host}:{port}: {exc}") from exc
        try:
            hello = Message(sender="C1", recipient="C2",
                            tag="transport.hello",
                            payload={"peer": "cloud", "epoch": self.epoch})
            send_frame(peer_sock, self.codec.encode_message(hello),
                       deadline=deadline_at(10.0))
            body = recv_frame(peer_sock, deadline=deadline_at(10.0))
            if body is None or self.codec.decode_message(
                    body).tag != "transport.hello_ok":
                raise PeerUnavailable(
                    f"C2 at {host}:{port} rejected the peer hello")
        except BaseException:
            _close_socket(peer_sock)
            raise
        connection = MuxConnection(peer_sock, self.codec, "C1", "C2",
                                   io_deadline=self.io_deadline)
        connection.start_reader()
        return connection

    def _ensure_pool(self) -> PeerPool:
        """The peer connection pool, created on first use."""
        with self._state_lock:
            if self._peer_pool is None:
                if self._table is None:
                    raise ConfigurationError("C1 is not provisioned yet")
                self._peer_pool = PeerPool(self._dial_peer_connection,
                                           size=self.peer_connections,
                                           role=self.role)
            return self._peer_pool

    def _peer_failure(self, channel: MuxChannel,
                      exc: ChannelError) -> ChannelError:
        """Convert a mid-query channel failure into a retriable error.

        A context-level failure (receive deadline, context torn down)
        poisons only this query's channel; the shared connection keeps
        carrying the other in-flight queries.  A connection-level failure
        additionally discards the dead connection from the pool, so the
        next lease re-dials instead of reusing a desynchronised socket.
        """
        pool = self._peer_pool
        if pool is not None and not channel.connection.alive:
            pool.discard(channel.connection)
        if isinstance(exc, (PeerUnavailable, DeadlineExceeded)):
            return exc
        return PeerUnavailable(f"peer link to C2 failed mid-query: {exc}")

    # -- query execution ---------------------------------------------------------
    def _build_query_protocol(self, channel: MuxChannel, mode: str,
                              k: int = 0) -> SkNNProtocol:
        """A fresh protocol stack for one run over a leased context.

        The heavyweight state (encrypted table, precompute engine, warm
        pools) is shared and thread-safe; only the channel-bound wrappers
        (cloud pair, protocol driver) are built per run, so concurrent
        queries never share mutable protocol state.  A coordinator builds
        what a plain C1 builds; the caller points its scan at the shards.
        Without a provisioned engine C1 gets the run's own
        :class:`~repro.crypto.precompute.QueryLookahead`, and a secure run
        a second one of DGK re-randomizers, sized by
        :meth:`_lookahead_budget`.
        """
        assert self._table is not None
        table = self._table
        c1 = CloudC1(table.public_key, channel, rng=self._derive_rng(),
                     dgk_key=self._dgk_key)
        c1.host_database(table)
        c2_stub = DecryptorParty(
            "C2", RemotePrivateKey(table.public_key), channel,
            rng=self._derive_rng())
        cloud = FederatedCloud(c1=c1, c2=c2_stub, channel=channel)
        if self.engine is not None:
            cloud.attach_engine(self.engine, None, self.dgk_engine)
        else:
            paillier, dgk = self._lookahead_budget(mode, k)
            cloud.attach_engine(
                QueryLookahead(table.public_key, self._derive_rng(),
                               paillier), None,
                QueryLookahead(self._dgk_key, self._derive_rng(), dgk)
                if dgk and self._dgk_key else None)
        if self.shard_index is not None:
            return ShardScanProtocol(cloud,
                                     party=f"C1-shard{self.shard_index}")
        if mode == "basic":
            return SkNNBasic(cloud)
        if mode == "secure":
            if self.distance_bits is None:
                raise ConfigurationError(
                    "mode 'secure' needs distance_bits (provision l)")
            return SkNNSecure(cloud, distance_bits=self.distance_bits)
        raise ConfigurationError(
            f"mode {mode!r} is unavailable on this daemon")

    def _lookahead_budget(self, mode: str, k: int) -> tuple[int, int]:
        """C1's Paillier and DGK encryptions in one run of ``mode`` in the
        cost model: a shard's are its slice's scan, a coordinator's leave
        out the scan it scatters, and only a secure run draws DGK
        re-randomizers.  A ``k`` the protocol refuses draws nothing."""
        assert self._table is not None
        records, dimensions = len(self._table), self._table.dimensions
        ssed_slots, distance_slots = packing_slots(
            self._table.public_key.key_size, self._table.schema)
        scan = (int(ssed_scan_cost(records, dimensions,
                                   ssed_slots).c1.encryptions)
                if records else 0)
        if self.shard_index is not None:
            return scan, 0
        if type(k) is not int or not 1 <= k <= records:
            return 0, 0
        bit_length = self.distance_bits if mode == "secure" else None
        total = pool_targets(records, dimensions, k, 1,
                             bit_length=bit_length, ssed_slots=ssed_slots,
                             distance_slots=distance_slots)[0]
        dgk = pool_targets(records, dimensions, k, 1, bit_length=bit_length,
                           dgk=True)[0]
        return (total - scan if self._shard_addresses is not None
                else total), dgk

    def _run_leased(self, mode: str, execute: Callable[[SkNNProtocol], Any],
                    **fields: Any) -> tuple[Any, SkNNRunReport]:
        """The one way a run happens on C1: lease, trace, window, merge.

        No query lock: every run leases its own context channel and builds
        its own protocol stack, so N in-flight runs pipeline over the shared
        connections, and the counting scope makes this thread's Paillier
        operations (and, through its own scoped window, C2's) attributable
        to exactly this run.  The trace is rooted here so what C2 — and, on
        a coordinator, the shard daemons — measured can be merged into the
        report ``execute(protocol)`` leaves in ``protocol.last_report``.
        ``fields`` label the root span and the slow-query log.  A run with
        its own lookahead records in ``report.stats.extra`` how many of its
        fresh factors were ready when drawn (``factors_ready``).
        """
        shard_reports: list[SkNNRunReport] = []

        def scatter(query: list[Ciphertext]) -> list[Ciphertext]:
            distances, reports = self._scatter_to_shards(query)
            shard_reports.extend(reports)
            return distances

        with self._inflight_lock:
            self._inflight += 1
        try:
            with counting_scope(OperationCounter()):
                channel = self._ensure_pool().lease()
                try:
                    protocol = self._build_query_protocol(
                        channel, mode, fields.get("k", 0))
                    if self._shard_addresses is not None:
                        protocol.scan = scatter
                    with telemetry_tracing.trace(
                            f"query.{protocol.name}", party=protocol.party,
                            **fields) as span:
                        trace_id = span.trace_id
                        # Opens C2's counter window *before* the runner
                        # snapshots the channel's traffic, so the telemetry
                        # frames never count toward the run's traffic deltas.
                        channel.send("C1", trace_id,
                                     tag="telemetry.trace_begin")
                        result = execute(protocol)
                    channel.send("C1", trace_id, tag="telemetry.collect")
                    window = channel.receive(
                        "C1", expected_tag="telemetry.collect")
                except ChannelError as exc:
                    raise self._peer_failure(channel, exc) from exc
                finally:
                    channel.release()
        finally:
            with self._inflight_lock:
                self._inflight -= 1
        report = protocol.last_report
        engine = protocol.cloud.engine
        ready = ({"factors_ready": sum(
                      lookahead.hits for lookahead in (
                          engine, protocol.cloud.c1.dgk_engine)
                      if lookahead is not None)}
                 if isinstance(engine, QueryLookahead) else {})
        report.stats.extra.update(ready)
        report.merge_remote(
            trace_id, telemetry_tracing.get_tracer().take(trace_id),
            window if isinstance(window, dict) else None, shard_reports)
        self.slow_log.observe(report.wall_time_seconds,
                              protocol=report.protocol, trace_id=trace_id,
                              **fields, **ready)
        return result, report

    @staticmethod
    def _shard_reply(index: int, records: int, reply: Any
                     ) -> tuple[list[Ciphertext], SkNNRunReport]:
        """Parse one shard's ``transport.scan`` reply, or fail the query.

        ``records`` is the size of that shard's slice: anything but exactly
        that many ciphertexts plus a parseable report is a
        :class:`ChannelError` naming the shard.
        """
        try:
            distances = reply["distances"]
            report = SkNNRunReport.from_payload(reply["report"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ChannelError(
                f"shard {index} answered transport.scan with a malformed "
                f"reply: {exc!r}") from exc
        if not (isinstance(distances, list) and len(distances) == records
                and all(isinstance(distance, Ciphertext)
                        for distance in distances)):
            raise ChannelError(
                f"shard {index} answered transport.scan with something "
                f"other than its slice's {records} encrypted distances")
        return distances, report

    def _scatter_to_shards(self, query: list[Ciphertext]
                           ) -> tuple[list[Ciphertext], list[SkNNRunReport]]:
        """Fan the distance scan out to every shard daemon, in parallel,
        and gather ``E(d_i)`` for the whole table in record order.

        Each shard is asked once, over its own short-lived control
        connection (a per-query client: the control protocol is
        request/reply, so a shared client would serialize concurrent
        queries).  Replies are placed by shard index — the slices are
        :func:`~repro.core.sknn_shard.shard_bounds`' contiguous ones, so
        shard order is record order — never by completion order.  A dead
        shard daemon, or one whose reply is not its slice's distances plus a
        report, surfaces as a typed error failing only this query, never as
        a quietly partial top-k.
        """
        from repro.transport.client import DaemonClient

        def ask(index: int, address: tuple[str, int], records: int):
            client = DaemonClient(address, self.codec, connect_timeout=10.0,
                                  request_deadline=self.io_deadline)
            try:
                return self._shard_reply(index, records, client.request(
                    "transport.scan", {"query": query},
                    timeout=self.io_deadline))
            finally:
                client.close()

        assert self._table is not None and self._shard_addresses
        addresses = self._shard_addresses
        bounds = shard_bounds(len(self._table), len(addresses))
        with ThreadPoolExecutor(max_workers=len(addresses),
                                thread_name_prefix="sknn-scatter") as pool:
            futures = [pool.submit(ask, index, address, stop - start)
                       for index, (address, (start, stop))
                       in enumerate(zip(addresses, bounds))]
        try:
            replies = [future.result() for future in futures]
        except ReproError:
            raise
        except Exception as exc:
            raise PeerUnavailable(f"shard scatter failed: {exc}") from exc
        return ([distance for distances, _ in replies
                 for distance in distances],
                [report for _, report in replies])

    def _handle_scan(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Shard daemon: run this slice's distance phase for one query.

        The reply is the slice's encrypted distances, in slice order, plus
        the scan's report (cost rows under ``party="C1-shard{i}"``, already
        merged with the C2 window the scan consumed), which the coordinator
        absorbs into the query's.
        """
        if self.shard_index is None:
            raise ConfigurationError(
                "transport.scan is only served by shard daemons "
                "(start with --shard-index/--shard-count)")
        query = payload["query"]
        distances, report = self._run_leased(
            "basic", lambda protocol: protocol.run_with_report(
                query, 0, distance_bits=self.distance_bits))
        return {"distances": distances, "report": report.as_payload()}

    def _handle_query(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Run one query and ship C1's share half plus the merged report.

        Served through the replay memo: ``payload["query_id"]`` is the
        request's idempotency id, so a retried request whose reply was lost
        re-reads the completed answer, and a duplicate of an in-flight one
        waits for the original run instead of double-consuming pool entries
        and mailbox shares.  ``transport.scan`` is not memoised: a scan
        leaves no share or delivery id behind, the coordinator asks each
        shard exactly once per query, and a memo would hold ``n / shards``
        ciphertexts per entry.
        """
        if self.shard_index is not None:
            raise ConfigurationError(
                "shard daemons serve transport.scan only; send queries to "
                "the coordinator C1")
        query, k = payload["query"], payload["k"]

        def answer() -> dict[str, Any]:
            shares, report = self._run_leased(
                payload.get("mode", "basic"),
                lambda protocol: protocol.run_with_report(
                    query, k, distance_bits=self.distance_bits), k=k)
            return {
                "masks": shares.masks_from_c1,
                "modulus": shares.modulus,
                "delivery_id": shares.delivery_id,
                "report": report.as_payload(),
            }

        return self._reply_cache.run(payload.get("query_id"), answer,
                                     timeout=self.io_deadline)
