"""Party daemons: C1 and C2 as standalone networked processes.

Each daemon owns one listening TCP socket and serves two kinds of
connections, distinguished by the first frame (a ``transport.hello``
message):

* **clients** (Alice provisioning, Bob querying, the supervisor) speak a
  request/reply control protocol — tags prefixed ``transport.``;
* **the peer cloud** (only on C2: the connection C1 dials after it is
  provisioned) speaks the *protocol* wire format: every incoming frame's tag
  selects the registered P2 step handler (see
  :meth:`~repro.protocols.base.TwoPartyProtocol.collect_p2_handlers`), which
  receives the message, computes C2's step and sends the tagged reply — the
  same handler code the in-memory runtime executes inline.

Trust boundary: the C1 daemon holds the encrypted table and only the public
key; the C2 daemon holds the private key and never sees the table.  Result
shares decrypted by C2 stay on the C2 daemon (a mailbox keyed by delivery
id) until the query client fetches them over its *own* connection — C1 never
relays them, mirroring the paper's delivery step.

Shutdown is hardened for CI: ``serve_forever`` installs SIGTERM/SIGINT
handlers and an ``atexit`` hook that close the listening socket, stop the
precompute producer thread, persist the ``--pool-cache`` and join every
connection thread, so a test harness never leaks processes or threads.
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
from pathlib import Path
from random import Random
from typing import Any, Callable

from repro.core.cloud import CloudC1, CloudC2, FederatedCloud
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.core.sknn_shard import (
    ScanRegistry,
    ShardCoordinatorProtocol,
    ShardScanProtocol,
)
from repro.crypto.paillier import (
    Ciphertext,
    OperationCounter,
    counting_scope,
)
from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine
from repro.crypto.serialization import (
    payload_from_jsonable,
    payload_to_jsonable,
    private_key_from_dict,
)
from repro.db.encrypted_table import EncryptedTable
from repro.exceptions import (
    ChannelError,
    ConfigurationError,
    CorruptStateError,
    DeadlineExceeded,
    PeerUnavailable,
    ReproError,
)
from repro.network.channel import Message
from repro.network.party import DecryptorParty
from repro.resilience import durability
from repro.resilience.durability import DurableReplyCache
from repro.resilience.idempotency import ReplyCache
from repro.resilience.policy import is_retriable
from repro.telemetry import MetricsHTTPServer, SlowQueryLog
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry import profiling as telemetry_profiling
from repro.telemetry import tracing as telemetry_tracing
from repro.transport.framing import deadline_at, recv_frame, send_frame
from repro.transport.mux import MuxChannel, MuxConnection, PeerPool
from repro.transport.wire import WireCodec

__all__ = ["PartyDaemon", "ShareMailbox", "DurableShareMailbox",
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
    """

    #: replay memo bound — ample for one client's retry window without
    #: letting a long-lived daemon accumulate decrypted shares.
    DELIVERED_MEMO = 32

    def __init__(self) -> None:
        self._shares: dict[int, list[list[int]]] = {}
        self._delivered: OrderedDict[tuple[int, str], list[list[int]]] = (
            OrderedDict())
        self._condition = threading.Condition()
        #: the C1 epoch whose delivery ids currently populate the mailbox
        self._epoch: str | None = None

    def put(self, delivery_id: int, masked_values: list[list[int]]) -> None:
        """File one share and wake anyone waiting for it."""
        with self._condition:
            self._record_put(delivery_id, masked_values)
            self._shares[delivery_id] = masked_values
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
            # Persist the consumption *before* handing the share out: after
            # a crash, replay must agree with what any client observed.
            self._record_take(delivery_id, attempt)
            share = self._shares.pop(delivery_id)
            if attempt is not None:
                self._delivered[(delivery_id, attempt)] = share
                while len(self._delivered) > self.DELIVERED_MEMO:
                    self._delivered.popitem(last=False)
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
            self._record_epoch(epoch)
            self._epoch = epoch
            self._shares.clear()
            self._delivered.clear()
            self._condition.notify_all()
            return False

    def clear(self) -> None:
        """Drop every stored share (a new provisioning/C1 epoch began)."""
        with self._condition:
            self._record_clear()
            self._epoch = None
            self._shares.clear()
            self._delivered.clear()
            self._condition.notify_all()

    # -- persistence hooks (no-ops here; see DurableShareMailbox) -----------
    def _record_put(self, delivery_id: int,
                    masked_values: list[list[int]]) -> None:
        """Called under the lock before a share becomes fetchable."""

    def _record_take(self, delivery_id: int, attempt: str | None) -> None:
        """Called under the lock before a share is popped/memoized."""

    def _record_epoch(self, epoch: str | None) -> None:
        """Called under the lock when a new C1 epoch wipes the mailbox."""

    def _record_clear(self) -> None:
        """Called under the lock when the mailbox is wiped outright."""

    def close(self) -> None:
        """Release any persistence resources (no-op for the in-memory box)."""

    def __len__(self) -> int:
        with self._condition:
            return len(self._shares)


class DurableShareMailbox(ShareMailbox):
    """A :class:`ShareMailbox` whose contents survive a daemon crash.

    Every state transition — a share filed, a share consumed (with its
    attempt-token memo), an epoch change, a wipe — is appended to a
    crash-consistent :class:`~repro.resilience.durability.Journal` before
    it takes effect in memory.  On construction the journal is replayed,
    so a C2 daemon SIGKILLed between delivering a share and the client's
    fetch comes back with the share still pending: the retried
    ``fetch_share`` (same attempt token) returns the bit-identical value
    and the query is never re-executed.

    The journal is compacted (atomic rewrite of just the live state) once
    it outgrows ``compact_every`` records, bounding disk usage by the
    mailbox size rather than the daemon's query count.
    """

    def __init__(self, path: str | Path, fsync: bool = True,
                 compact_every: int = 512) -> None:
        super().__init__()
        self._journal = durability.Journal(path, name="mailbox", fsync=fsync)
        self._compact_every = max(int(compact_every), 1)
        for record in self._journal.open():
            if not isinstance(record, dict):
                continue
            operation = record.get("op")
            if operation == "put":
                self._shares[int(record["id"])] = record["share"]
            elif operation == "take":
                share = self._shares.pop(int(record["id"]), None)
                attempt = record.get("attempt")
                if share is not None and attempt is not None:
                    self._delivered[(int(record["id"]), attempt)] = share
                    while len(self._delivered) > self.DELIVERED_MEMO:
                        self._delivered.popitem(last=False)
            elif operation == "epoch":
                self._epoch = record.get("epoch")
                self._shares.clear()
                self._delivered.clear()
            elif operation == "clear":
                self._epoch = None
                self._shares.clear()
                self._delivered.clear()
        #: pending shares + delivered memos brought back by journal replay
        self.recovered = len(self._shares) + len(self._delivered)

    # -- persistence hooks (called under the condition lock) ----------------
    def _record_put(self, delivery_id: int,
                    masked_values: list[list[int]]) -> None:
        self._journal.append(
            {"op": "put", "id": delivery_id, "share": masked_values})
        self._maybe_compact()

    def _record_take(self, delivery_id: int, attempt: str | None) -> None:
        self._journal.append(
            {"op": "take", "id": delivery_id, "attempt": attempt})
        self._maybe_compact()

    def _record_epoch(self, epoch: str | None) -> None:
        self._journal.append({"op": "epoch", "epoch": epoch})

    def _record_clear(self) -> None:
        self._journal.append({"op": "clear"})

    def _maybe_compact(self) -> None:
        if self._journal.records <= self._compact_every:
            return
        records: list[dict[str, Any]] = []
        if self._epoch is not None:
            records.append({"op": "epoch", "epoch": self._epoch})
        records.extend({"op": "put", "id": delivery_id, "share": share}
                       for delivery_id, share in self._shares.items())
        for (delivery_id, attempt), share in self._delivered.items():
            records.append({"op": "put", "id": delivery_id, "share": share})
            records.append(
                {"op": "take", "id": delivery_id, "attempt": attempt})
        self._journal.rewrite(records)

    def close(self) -> None:
        self._journal.close()

    @property
    def journal_records(self) -> int:
        """Records currently in the journal file (introspection)."""
        return self._journal.records


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
        #: process.  The C1 daemon fetches C2's per-query counter deltas
        #: over the ``telemetry.collect`` exchange and merges them into the
        #: run report, so distributed reports show real C2 columns.
        self.counter = OperationCounter()

    def __getattr__(self, name: str) -> Any:
        raise ConfigurationError(
            f"the private key is held by the remote C2 process "
            f"(attempted to use {name!r} locally)")


class _Connection:
    """One accepted socket plus the bookkeeping to shut it down."""

    def __init__(self, sock: socket.socket, address) -> None:
        self.sock = sock
        self.address = address

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class PartyDaemon:
    """One cloud party (C1 or C2) serving its side of the SkNN protocols.

    Args:
        role: ``"c1"`` or ``"c2"``.
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
            in memory, exactly as before.
        state_fsync: fsync journal appends and snapshot writes (the
            durability guarantee; disable only for benchmarks).
        journal_compact_every: rewrite a journal once it exceeds this many
            records, bounding disk usage by live state rather than query
            count.
    """

    #: snapshot kind tag of the provision manifest
    MANIFEST_KIND = "party-provision-manifest"

    def __init__(self, role: str, host: str = "127.0.0.1", port: int = 0,
                 port_file: str | Path | None = None,
                 pool_cache: str | Path | None = None,
                 metrics_listen: str | None = None,
                 slow_query_seconds: float | None = 1.0,
                 io_deadline: float | None = DEFAULT_IO_DEADLINE,
                 state_dir: str | Path | None = None,
                 state_fsync: bool = True,
                 journal_compact_every: int = 512,
                 profile: bool = False,
                 peer_connections: int = 1,
                 shard_index: int | None = None,
                 shard_count: int | None = None) -> None:
        if role not in ("c1", "c2"):
            raise ConfigurationError(f"unknown party role {role!r}")
        if shard_index is not None and role != "c1":
            raise ConfigurationError("only C1 daemons can be shards")
        if (shard_index is None) != (shard_count is None):
            raise ConfigurationError(
                "--shard-index and --shard-count go together")
        if shard_index is not None and not (
                0 <= shard_index < (shard_count or 0)):
            raise ConfigurationError(
                f"shard_index {shard_index} out of range for "
                f"{shard_count} shards")
        self.role = role
        self.party_name = role.upper()
        #: how many persistent multiplexed connections the C1 side keeps to
        #: C2 — pipelining comes from per-query contexts either way, extra
        #: connections spread the socket-level send serialization.
        self.peer_connections = max(int(peer_connections), 1)
        #: shard identity of a C1 shard daemon (``None`` on a plain C1 or
        #: coordinator); the provision payload must agree.
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.host = host
        self.port = port
        self.port_file = Path(port_file) if port_file is not None else None
        self.pool_cache = Path(pool_cache) if pool_cache is not None else None
        self.metrics_listen = metrics_listen
        self.io_deadline = io_deadline
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.state_fsync = state_fsync
        self.journal_compact_every = journal_compact_every
        self._started_at = time.monotonic()
        #: this process's delivery-id epoch (C1 only): sent in the cloud
        #: hello so C2 wipes its mailbox exactly when the id counter
        #: restarted, not on every reconnect of the same process.  Shard
        #: daemons never mint delivery ids, so they carry no epoch and
        #: their hellos leave the coordinator's mailbox alone.
        self.epoch = (uuid.uuid4().hex
                      if role == "c1" and shard_index is None else None)
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        # Idempotent replay of completed transport.query/query_batch
        # replies, keyed by the client's query id (see _handle_control).
        # With a state dir, completed replies are journaled and survive a
        # crash: a retried query id after a restart replays from disk.
        if self.state_dir is not None and role == "c1":
            self._reply_cache: ReplyCache = DurableReplyCache(
                self.state_dir / "replies.journal", name=f"{role}-query",
                fsync=state_fsync, compact_every=journal_compact_every)
        else:
            self._reply_cache = ReplyCache(name=f"{role}-query")
        self._metrics_server: MetricsHTTPServer | None = None
        self.slow_log = SlowQueryLog(threshold_seconds=slow_query_seconds)
        #: always-on sampling profiler (``--profile``); ``/profile`` and
        #: ``transport.profile`` fall back to an ephemeral sampler when off.
        self.profiler = (telemetry_profiling.SamplingProfiler()
                         if profile else None)
        # C2: per-trace cost ledgers for the telemetry.collect window.  The
        # ledger's construction-time snapshot *is* the counter-delta window
        # opened by telemetry.trace_begin, so the shipped counters and the
        # per-phase rows can never disagree.
        self._trace_ledgers: dict[str, telemetry_profiling.CostLedger] = {}
        self._trace_ledgers_lock = threading.Lock()

        self.codec = WireCodec()
        self.engine: PrecomputeEngine | None = None
        if self.state_dir is not None and role == "c2":
            self.mailbox: ShareMailbox = DurableShareMailbox(
                self.state_dir / "mailbox.journal", fsync=state_fsync,
                compact_every=journal_compact_every)
        else:
            self.mailbox = ShareMailbox()
        self._count_recovered()
        self.rng: Random | None = None
        self.distance_bits: int | None = None

        # C2 state
        self._private_key = None
        #: rendezvous of shard candidate filings across peer connections
        self._scan_registry = ScanRegistry(
            timeout=io_deadline if io_deadline is not None else 120.0)
        #: accepted cloud-peer connections (C2), for stats and shutdown
        self._peer_links: list[MuxConnection] = []
        # C1 state
        self._peer_pool: PeerPool | None = None
        # Provisioned inputs kept so a failed peer link can be re-dialled
        # and the protocol stack rebuilt without a client re-provision.
        self._table: EncryptedTable | None = None
        self._c2_address: tuple[str, int] | None = None
        #: coordinator mode: addresses of the C1 shard daemons to scatter to
        self._shard_addresses: list[tuple[str, int]] | None = None
        #: shard mode: this slice's global start index (from provisioning)
        self._start_index = 0
        self._rng_lock = threading.Lock()
        self._inflight = 0
        self._inflight_lock = threading.Lock()

        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._connections: set[_Connection] = set()
        self._state_lock = threading.Lock()
        self._stop = threading.Event()
        self._closed = False

    def _count_recovered(self) -> None:
        """Publish how much journaled state the restart brought back."""
        recovered = telemetry_metrics.get_registry().counter(
            "repro_recovered_deliveries_total",
            "Mailbox shares and completed replies replayed from the "
            "durability journals after a restart.", ("role", "kind"))
        shares = getattr(self.mailbox, "recovered", 0)
        if shares:
            recovered.inc(shares, role=self.role, kind="share")
        replies = getattr(self._reply_cache, "recovered", 0)
        if replies:
            recovered.inc(replies, role=self.role, kind="reply")
        if shares or replies:
            logger.info("%s recovered %d shares and %d replies from %s",
                        self.party_name, shares, replies, self.state_dir)

    # -- durable provision manifest -------------------------------------------
    def _manifest_path(self) -> Path | None:
        if self.state_dir is None:
            return None
        return self.state_dir / "manifest.json"

    def _persist_manifest(self, payload: dict[str, Any]) -> None:
        """Snapshot the provision payload so a restart self-provisions."""
        path = self._manifest_path()
        if path is None:
            return
        document = {"role": self.role,
                    "payload": payload_to_jsonable(payload)}
        durability.write_snapshot(path, self.MANIFEST_KIND, document,
                                  fsync=self.state_fsync)
        logger.info("%s persisted its provision manifest to %s",
                    self.party_name, path)

    def _recover_state(self) -> None:
        """Self-provision from the manifest left by a previous incarnation.

        Runs before the accept loop, so by the time the port is
        discoverable the daemon already serves fetch/replay traffic (C2:
        recovered mailbox + key; C1: reply cache + table) without anyone
        re-shipping the provision payloads.  A corrupt manifest is
        rejected — logged and ignored, never a startup crash.  C1 does not
        dial its peer here: the link comes up lazily on the first query
        (:meth:`_ensure_peer`), because C2 may itself still be restarting.
        """
        path = self._manifest_path()
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
        """Scrape-time collector mirroring daemon state into the registry."""
        role = self.role
        registry.gauge(
            "repro_pending_shares",
            "Decrypted result shares waiting in the C2 mailbox.",
            ("role",)).set(len(self.mailbox), role=role)
        operations = registry.gauge(
            "repro_crypto_operations",
            "Cumulative Paillier operations performed by this party.",
            ("party", "op"))
        public_key = self.codec.public_key
        if public_key is not None:
            for op, value in public_key.counter.snapshot().items():
                operations.set(value, party=role, op=op)
        if self._private_key is not None:
            operations.set(self._private_key.counter.snapshot()["decryptions"],
                           party=role, op="decryptions")
        if self.engine is not None:
            stats = self.engine.stats()
            pools = registry.gauge(
                "repro_pool_items", "Precompute pool fill level.",
                ("role", "pool"))
            for pool, remaining in stats.get("remaining", {}).items():
                pools.set(remaining, role=role, pool=pool)
            hits = registry.gauge(
                "repro_pool_requests", "Precompute pool takes served.",
                ("role", "outcome"))
            hits.set(sum(stats.get("hits", {}).values())
                     + stats.get("obfuscator_hits", 0),
                     role=role, outcome="hit")
            hits.set(sum(stats.get("misses", {}).values())
                     + stats.get("obfuscator_misses", 0),
                     role=role, outcome="miss")
        links = self._peer_connections_snapshot()
        if links:
            traffic = self._peer_traffic_total(links)
            wire = registry.gauge(
                "repro_wire", "Cloud-to-cloud traffic on the peer link.",
                ("role", "unit"))
            wire.set(traffic.bytes_transferred, role=role, unit="bytes")
            wire.set(traffic.messages, role=role, unit="messages")
            wire.set(traffic.ciphertexts, role=role, unit="ciphertexts")
        registry.gauge(
            "repro_inflight_queries",
            "Queries currently executing on this daemon.",
            ("role",)).set(self._inflight_count(), role=role)

    # -- peer-link introspection ----------------------------------------------
    def _peer_connections_snapshot(self) -> list[MuxConnection]:
        """Every live multiplexed peer connection this daemon holds."""
        if self.role == "c1":
            pool = self._peer_pool
            return pool.connections() if pool is not None else []
        with self._state_lock:
            return list(self._peer_links)

    @staticmethod
    def _peer_traffic_total(links: list[MuxConnection]):
        """Merged traffic across every peer connection."""
        total = links[0].total_traffic()
        for link in links[1:]:
            total = total.merged_with(link.total_traffic())
        return total

    def _inflight_count(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def _track_inflight(self, delta: int) -> None:
        with self._inflight_lock:
            self._inflight += delta

    def serve_forever(self, install_signal_handlers: bool = True) -> None:
        """Run until SIGTERM/SIGINT or a ``transport.shutdown`` request.

        Installs the hardening hooks: signal handlers and an ``atexit``
        fallback both route into :meth:`close`, so the listening socket is
        released, the precompute producer joined and the pool cache saved no
        matter how the process exits.
        """
        if install_signal_handlers:
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

    def stop(self) -> None:
        """Ask the daemon to shut down (non-blocking)."""
        self._stop.set()

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
            # close() from another thread does not wake a blocked accept()
            # on Linux; shutdown() does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self.engine is not None:
            self.engine.stop_producer()
            if self.pool_cache is not None:
                try:
                    saved = self.engine.save_pools(self.pool_cache)
                    logger.info("%s daemon saved %d pool items to %s",
                                self.party_name, saved, self.pool_cache)
                except OSError as exc:  # pragma: no cover - disk trouble
                    logger.warning("could not save pool cache: %s", exc)
        if self._peer_pool is not None:
            self._peer_pool.close()
        for link in self._peer_connections_snapshot():
            link.close()
        self.mailbox.close()
        if isinstance(self._reply_cache, DurableReplyCache):
            self._reply_cache.close()
        with self._state_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
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
            connection = _Connection(sock, address)
            with self._state_lock:
                self._connections.add(connection)
            thread = threading.Thread(
                target=self._serve_connection, args=(connection,),
                name=f"sknn-{self.role}-conn", daemon=True)
            thread.start()
            # Prune finished handlers so a long-lived daemon's thread list
            # (and close()'s join loop) stays bounded by live connections.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)

    def _serve_connection(self, connection: _Connection) -> None:
        try:
            hello = self._read_message(connection.sock)
            if hello is None or hello.tag != "transport.hello":
                raise ChannelError("connection did not start with a hello")
            peer_kind = hello.payload.get("peer") if isinstance(
                hello.payload, dict) else None
            if peer_kind == "cloud" and self.role == "c2":
                if self._private_key is None:
                    self._send_message(connection.sock, "transport.error",
                                       "C2 is not provisioned yet")
                    raise ChannelError("peer connected before provisioning")
                self._send_message(connection.sock, "transport.hello_ok",
                                   {"role": self.role})
                self._serve_cloud_peer(connection,
                                       epoch=hello.payload.get("epoch"))
            elif peer_kind == "client":
                self._send_message(connection.sock, "transport.hello_ok",
                                   {"role": self.role,
                                    "provisioned": self._provisioned()})
                self._serve_client(connection)
            else:
                raise ChannelError(f"unsupported peer kind {peer_kind!r}")
        except ChannelError as exc:
            logger.debug("connection from %s ended: %s",
                         connection.address, exc)
        except Exception:  # pragma: no cover - unexpected
            logger.exception("connection handler crashed")
        finally:
            connection.close()
            with self._state_lock:
                self._connections.discard(connection)

    def _provisioned(self) -> bool:
        if self.role == "c2":
            return self._private_key is not None
        # The table is the provisioned state; the peer link may be down
        # between queries (it is re-dialled on demand by _ensure_peer).
        return self._table is not None

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
        can decide without string matching.  (Old clients that expect a
        plain string render the dict — degraded, not broken.)
        """
        self._send_message(sock, "transport.error", {
            "type": type(error).__name__,
            "message": str(error),
            "retriable": is_retriable(error),
        })

    # -- the C1<->C2 protocol link (C2 side) ----------------------------------
    def _serve_cloud_peer(self, connection: _Connection,
                          epoch: str | None = None) -> None:
        """Demultiplex one peer socket into per-query dispatch workers.

        The connection thread becomes the socket's reader: every frame is
        routed by its context id to a :class:`MuxChannel`, and each new
        context spawns a worker thread running the P2 dispatch loop over
        that channel alone — N pipelined queries from C1 execute their C2
        steps concurrently.  Frames without a context (a pre-pipelining
        C1) land on the ``None`` context and are served identically.
        """
        if self.role != "c2" or self._private_key is None:
            raise ChannelError("C2 is not provisioned yet")
        workers: list[threading.Thread] = []
        workers_lock = threading.Lock()

        def on_new_context(channel: MuxChannel) -> None:
            worker = threading.Thread(
                target=self._serve_peer_context, args=(channel,),
                name=f"sknn-c2-ctx-{channel.context}", daemon=True)
            with workers_lock:
                workers.append(worker)
            worker.start()

        mux = MuxConnection(connection.sock, self.codec, "C2", "C1",
                            io_deadline=self.io_deadline,
                            on_new_context=on_new_context)
        with self._state_lock:
            self._peer_links.append(mux)
        # Delivery ids are minted per C1 *process*: a peer hello carrying a
        # new epoch means the id counter started over, so stale shares must
        # never be fetchable under a recycled id.  The same epoch
        # re-dialling — a dropped link, another connection of the same
        # C1's pool, or this daemon restarting under a durable mailbox —
        # keeps pending shares fetchable.  Shard daemons carry no epoch
        # (they never deliver) and leave the mailbox alone.
        if epoch is not None and not self.mailbox.adopt_epoch(epoch):
            logger.info("C2 reset its mailbox for C1 epoch %s", epoch)
        logger.info("cloud peer connected from %s", connection.address)
        try:
            mux.serve()  # runs until the socket dies or shutdown closes it
        finally:
            with self._state_lock:
                if mux in self._peer_links:
                    self._peer_links.remove(mux)
            with workers_lock:
                pending = list(workers)
            for worker in pending:
                worker.join(timeout=5.0)
        logger.info("cloud peer from %s disconnected", connection.address)

    def _serve_peer_context(self, channel: MuxChannel) -> None:
        """Dispatch one query context's frames to the P2 step handlers.

        Runs on its own worker thread inside a *counting scope*: every
        Paillier operation this thread performs tees into a private
        counter, so the per-query telemetry exchange reports exact C2
        deltas even with other contexts decrypting concurrently.
        """
        scope = OperationCounter()
        registry, _cloud = self._build_p2_registry(channel)
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
                    # Control frames from C1's telemetry layer: counter-
                    # delta windows and span collection — never routed to
                    # protocol handlers.
                    try:
                        self._handle_peer_telemetry(tag, channel, scope)
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
                # The envelope's trace context parents this handler's span
                # under the C1-side span that sent the frame.
                trace_context = channel.next_trace()
                ledger = self._ledger_for(trace_context)
                try:
                    with tracer.remote_span(f"p2.{tag}", trace_context,
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
                except ReproError as exc:
                    logger.warning("P2 step %s failed: %s", tag, exc)
                    # Unblock the C1 driver instead of leaving it waiting
                    # on a reply frame that will never come.
                    try:
                        channel.send("C2",
                                     f"P2 step {tag!r} failed: {exc}",
                                     tag="transport.error")
                    except ChannelError:
                        break  # the peer that caused the failure is gone

    def _ledger_for(self, trace_context: Any
                    ) -> "telemetry_profiling.CostLedger | None":
        """The per-trace cost ledger for a frame's trace context, if open."""
        if not trace_context:
            return None
        with self._trace_ledgers_lock:
            return self._trace_ledgers.get(str(trace_context[0]))

    def _handle_peer_telemetry(self, tag: str, channel: MuxChannel,
                               scope: OperationCounter | None = None) -> None:
        """C2's side of the per-query telemetry exchange.

        ``telemetry.trace_begin`` (payload: trace id) opens the delta
        window for one query by constructing a per-trace
        :class:`~repro.telemetry.profiling.CostLedger`.  With pipelined
        queries the ledger sources the dispatching context's *counting
        scope* — the thread-private counter every P2 handler on this
        worker tees into — so concurrent queries never bleed into each
        other's windows.  ``telemetry.collect`` (payload: trace id)
        closes the window and replies with the counter deltas, every
        finished span of that trace, and the ledger's per-phase cost rows,
        which C1 stitches into its ``SkNNRunReport``.  The counters are
        derived *from* the ledger, so the shipped totals always equal the
        sum of the per-phase rows.
        """
        payload = channel.receive("C2")
        trace_id = str(payload)
        if tag == "telemetry.trace_begin":
            assert self._private_key is not None
            extras = ({"pool_hits": self.engine.pool_hit_total}
                      if self.engine is not None else None)
            sources = ((scope,) if scope is not None else
                       (self._private_key.public_key.counter,
                        self._private_key.counter))
            ledger = telemetry_profiling.CostLedger(
                sources=sources, extras=extras, party="C2")
            with self._trace_ledgers_lock:
                # Bound on windows opened but never collected (a leaky or
                # crashed C1); sized for a deep pipeline of live queries.
                while len(self._trace_ledgers) >= 64:
                    self._trace_ledgers.pop(next(iter(self._trace_ledgers)))
                self._trace_ledgers[trace_id] = ledger
            return
        if tag != "telemetry.collect":
            raise ChannelError(f"unknown telemetry frame {tag!r}")
        with self._trace_ledgers_lock:
            ledger = self._trace_ledgers.pop(trace_id, None)
        counters: dict[str, int] = {}
        cost_rows: list[dict[str, Any]] = []
        if ledger is not None:
            cost_rows = ledger.finish()
            telemetry_profiling.record_phase_metrics(cost_rows)
            totals = ledger.total_ops()
            counters = {op: int(totals.get(op, 0))
                        for op in ("encryptions", "exponentiations",
                                   "homomorphic_additions", "decryptions")}
        spans = [span.as_payload()
                 for span in telemetry_tracing.get_tracer().take(trace_id)]
        channel.send("C2", {"counters": counters, "spans": spans,
                            "cost": cost_rows},
                     tag="telemetry.collect")

    def _build_p2_registry(
        self, channel: MuxChannel
    ) -> tuple[dict[str, Callable[[], Any]], FederatedCloud]:
        """Construct C2's protocol stack over ``channel`` and index its steps."""
        assert self._private_key is not None
        public_key = self._private_key.public_key
        c1_stub = CloudC1(public_key, channel, rng=self._derive_rng())
        c2 = CloudC2(self._private_key, channel, rng=self._derive_rng())
        c2.share_sink = self.mailbox.put
        cloud = FederatedCloud(c1=c1_stub, c2=c2, channel=channel)
        if self.engine is not None:
            cloud.attach_engine(None, self.engine)
        protocols: list[Any] = [
            SkNNBasic(cloud),
            # Shard filing/gather steps rendezvous through the daemon-wide
            # registry, so shards filing on other connections meet the
            # coordinator's gather here.
            ShardScanProtocol(cloud, registry=self._scan_registry),
        ]
        if self.distance_bits is not None:
            protocols.append(SkNNSecure(cloud,
                                        distance_bits=self.distance_bits))
        registry: dict[str, Callable[[], Any]] = {}
        for protocol in protocols:
            registry.update(protocol.collect_p2_handlers())
        return registry, cloud

    def _derive_rng(self) -> Random | None:
        if self.rng is None:
            return None
        # Concurrent contexts derive their stream rngs from the shared
        # provision seed; the lock keeps getrandbits itself race-free.
        with self._rng_lock:
            return Random(self.rng.getrandbits(63))

    # -- client control protocol ----------------------------------------------
    def _serve_client(self, connection: _Connection) -> None:
        while not self._stop.is_set():
            message = self._read_message(connection.sock)
            if message is None:
                break
            try:
                reply = self._handle_control(message)
            except ReproError as exc:
                self._send_error(connection.sock, exc)
                continue
            except (KeyError, TypeError, AttributeError) as exc:
                # A malformed payload (missing field, wrong shape — e.g. a
                # version-skewed client) earns a diagnostic error frame, not
                # a dropped connection.
                self._send_error(connection.sock, ChannelError(
                    f"malformed {message.tag!r} payload: {exc!r}"))
                continue
            self._send_message(connection.sock, message.tag + ".ok", reply)
            if message.tag == "transport.shutdown":
                self._stop.set()
                break

    def _handle_control(self, message: Message) -> Any:
        tag = message.tag
        payload = message.payload
        if tag == "transport.ping":
            return {"role": self.role, "provisioned": self._provisioned(),
                    "uptime_seconds": time.monotonic() - self._started_at,
                    "io_deadline": self.io_deadline}
        if tag == "transport.shutdown":
            logger.info("%s daemon shutting down on client request",
                        self.party_name)
            return {"role": self.role}
        if tag == "transport.provision":
            return self._handle_provision(payload)
        if tag == "transport.stats":
            return self._handle_stats()
        if tag == "transport.metrics":
            registry = telemetry_metrics.get_registry()
            return {"role": self.role,
                    "prometheus": registry.render_prometheus(),
                    "snapshot": registry.snapshot()}
        if tag == "transport.profile":
            seconds = 1.0
            if isinstance(payload, dict) and "seconds" in payload:
                seconds = float(payload["seconds"])
            result = telemetry_profiling.profile_window(
                self.profiler, seconds, max_seconds=30.0)
            result["role"] = self.role
            return result
        if self.role == "c2" and tag == "transport.fetch_share":
            return self.mailbox.fetch(
                payload["delivery_id"],
                timeout=payload.get("timeout", DEFAULT_FETCH_TIMEOUT),
                attempt=payload.get("attempt"))
        if self.role == "c1" and tag == "transport.query":
            # The client's query id keys the replay memo: a retried query
            # whose reply was lost re-reads the completed answer, and a
            # duplicate of an in-flight query waits for the original run
            # instead of double-consuming pool entries and mailbox shares.
            return self._reply_cache.run(
                payload.get("query_id"),
                lambda: self._handle_query(payload),
                timeout=self.io_deadline)
        if self.role == "c1" and tag == "transport.query_batch":
            return self._reply_cache.run(
                payload.get("batch_id"),
                lambda: self._handle_query_batch(payload),
                timeout=self.io_deadline)
        if self.role == "c1" and tag == "transport.scan":
            # Shard daemons: the scan id keys the replay memo, so a
            # coordinator retrying a scatter whose reply was lost gets the
            # memoized result instead of double-filing with C2.
            return self._reply_cache.run(
                payload.get("scan_id"),
                lambda: self._handle_scan(payload),
                timeout=self.io_deadline)
        raise ChannelError(
            f"unsupported control tag {tag!r} for role {self.role!r}")

    def _handle_stats(self) -> dict[str, Any]:
        links = self._peer_connections_snapshot()
        stats: dict[str, Any] = {
            "role": self.role,
            "provisioned": self._provisioned(),
            "pending_shares": len(self.mailbox),
            "inflight_queries": self._inflight_count(),
            "resilience": {
                "uptime_seconds": time.monotonic() - self._started_at,
                "io_deadline": self.io_deadline,
                "reply_cache_entries": len(self._reply_cache),
                "peer_connected": any(link.alive for link in links),
                "events": self._resilience_events(),
            },
        }
        if self.role == "c1":
            stats["peer_connections_target"] = self.peer_connections
        if self.shard_index is not None:
            stats["shard"] = {"index": self.shard_index,
                              "count": self.shard_count,
                              "start_index": self._start_index}
        if self._shard_addresses is not None:
            stats["shards"] = [f"{host}:{port}"
                               for host, port in self._shard_addresses]
        if self.role == "c2":
            stats["pending_scans"] = self._scan_registry.pending()
        if self.state_dir is not None:
            stats["durability"] = {
                "state_dir": str(self.state_dir),
                "fsync": self.state_fsync,
                "mailbox_journal_records": getattr(
                    self.mailbox, "journal_records", 0),
                "reply_journal_records": getattr(
                    self._reply_cache, "journal_records", 0),
                "recovered_shares": getattr(self.mailbox, "recovered", 0),
                "recovered_replies": getattr(
                    self._reply_cache, "recovered", 0),
                "manifest": (self._manifest_path() is not None
                             and self._manifest_path().exists()),
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
                    "repro_rejected_queries_total",
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

    # -- provisioning ---------------------------------------------------------
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
        seed = payload.get("seed")
        self.rng = Random(seed) if seed is not None else None
        self.distance_bits = payload.get("distance_bits")
        if not from_recovery:
            # New provisioning epoch: replies memoized against the previous
            # table/key must never be replayed to post-provision retries.
            self._reply_cache.clear()
        if self.role == "c2":
            reply = self._provision_c2(payload, from_recovery=from_recovery)
        else:
            reply = self._provision_c1(payload, dial_peer=not from_recovery)
        if not from_recovery:
            self._persist_manifest(payload)
        return reply

    def _provision_c2(self, payload: dict[str, Any],
                      from_recovery: bool = False) -> dict[str, Any]:
        self._private_key = private_key_from_dict(payload["private_key"])
        self.codec.public_key = self._private_key.public_key
        if not from_recovery:
            self.mailbox.clear()  # new provisioning epoch: drop stale shares
        precompute = payload.get("precompute")
        loaded = self._build_engine(
            PrecomputeConfig.for_decryptor_load(**precompute)
            if precompute else None)
        logger.info("C2 provisioned (key %d bits, l=%s)",
                    self.codec.public_key.key_size, self.distance_bits)
        return {"role": "c2", "pool_items_loaded": loaded}

    def _provision_c1(self, payload: dict[str, Any],
                      dial_peer: bool = True) -> dict[str, Any]:
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
        self.codec.public_key = table.public_key
        self._table = table
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
        precompute = payload.get("precompute")
        loaded = self._build_engine(
            PrecomputeConfig.for_query_load(**precompute)
            if precompute else None)
        if dial_peer:
            self._ensure_pool().ensure()
        logger.info("C1%s provisioned (%d records, %d dims, peer %s:%d%s%s)",
                    "" if self.shard_index is None
                    else f" shard {self.shard_index}/{self.shard_count}",
                    len(table), table.dimensions, host, port,
                    "" if dial_peer else "; peer dial deferred",
                    "" if not self._shard_addresses
                    else f"; coordinating {len(self._shard_addresses)} shards")
        reply = {"role": "c1", "pool_items_loaded": loaded}
        if self.shard_index is not None:
            reply["shard_index"] = self.shard_index
        if self._shard_addresses is not None:
            reply["shards"] = len(self._shard_addresses)
        return reply

    # -- C1 peer link management ------------------------------------------------
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
            peer_sock = socket.create_connection((host, port), timeout=10)
        except OSError as exc:
            raise PeerUnavailable(
                f"cannot reach C2 at {host}:{port}: {exc}") from exc
        try:
            peer_sock.settimeout(None)
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
            try:
                peer_sock.close()
            except OSError:
                pass
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

    def _build_query_protocol(self, channel: MuxChannel, mode: str,
                              scatter: Callable[..., Any] | None = None,
                              scan_id: str | None = None) -> Any:
        """A fresh protocol stack for one query over a leased context.

        The heavyweight state (encrypted table, precompute engine, warm
        pools) is shared and thread-safe; only the channel-bound wrappers
        (cloud pair, protocol driver) are built per query, so concurrent
        queries never share mutable protocol state.
        """
        assert self._table is not None
        table = self._table
        c1 = CloudC1(table.public_key, channel, rng=self._derive_rng())
        c1.host_database(table)
        c2_stub = DecryptorParty(
            "C2", RemotePrivateKey(table.public_key), channel,
            rng=self._derive_rng())
        cloud = FederatedCloud(c1=c1, c2=c2_stub, channel=channel)
        if self.engine is not None:
            cloud.attach_engine(self.engine, None)
        if self.shard_index is not None:
            return ShardScanProtocol(cloud, shard_index=self.shard_index,
                                     shard_count=self.shard_count or 1,
                                     start_index=self._start_index)
        if self._shard_addresses is not None:
            if mode != "basic":
                raise ConfigurationError(
                    "sharded deployments serve mode 'basic' only (SkNN_m's "
                    "SMIN_n tournament does not shard across daemons)")
            assert scatter is not None and scan_id is not None
            return ShardCoordinatorProtocol(
                cloud, shard_count=len(self._shard_addresses),
                scatter=scatter, scan_id=scan_id)
        if mode == "basic":
            return SkNNBasic(cloud)
        if mode == "secure":
            if self.distance_bits is None:
                raise ConfigurationError(
                    "mode 'secure' needs distance_bits (provision l)")
            return SkNNSecure(cloud, distance_bits=self.distance_bits)
        raise ConfigurationError(
            f"mode {mode!r} is unavailable on this daemon")

    def _build_engine(self, config: PrecomputeConfig | None) -> int:
        """Build/warm this party's engine; reload the pool cache first."""
        if config is None:
            return 0
        assert self.codec.public_key is not None
        self.engine = PrecomputeEngine(self.codec.public_key,
                                       rng=self._derive_rng(), config=config)
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

    # -- query execution (C1) --------------------------------------------------
    def _peer_trace_begin(self, channel: MuxChannel, trace_id: str) -> None:
        """Open C2's counter-delta window for one query.

        Sent *before* ``run_with_report`` constructs its
        :class:`RunStatsRecorder`, so the telemetry frames never count
        toward the query's traffic deltas."""
        channel.send("C1", trace_id, tag="telemetry.trace_begin")

    def _peer_collect(self, channel: MuxChannel,
                      trace_id: str) -> dict[str, Any] | None:
        """Close the window: fetch C2's counter deltas and finished spans."""
        channel.send("C1", trace_id, tag="telemetry.collect")
        reply = channel.receive("C1", expected_tag="telemetry.collect")
        return reply if isinstance(reply, dict) else None

    def _stitch_report(self, report, trace_id: str,
                       remote: dict[str, Any] | None,
                       extra_spans: list[Any] | tuple = ()) -> None:
        """Merge C2's per-query telemetry into C1's run report.

        The recorder on this daemon only sees local counters (the remote
        key's counter is always zero), so the C2 columns of the report are
        filled from the deltas C2 measured over the same query window —
        distributed reports then match a serial run's totals.  The local
        and remote spans (plus any shard daemons' spans) merge into one
        ``report.trace`` timeline.
        """
        spans: list[Any] = list(telemetry_tracing.get_tracer().take(trace_id))
        spans.extend(extra_spans)
        if remote is not None:
            counters = remote.get("counters") or {}
            stats = report.stats
            stats.c2_encryptions += int(counters.get("encryptions", 0))
            stats.c2_exponentiations += int(
                counters.get("exponentiations", 0))
            stats.c2_decryptions += int(counters.get("decryptions", 0))
            additions = int(counters.get("homomorphic_additions", 0))
            if additions:
                stats.extra["c2_homomorphic_additions"] = (
                    stats.extra.get("c2_homomorphic_additions", 0) + additions)
            spans.extend(remote.get("spans") or [])
            # C2's per-phase cost rows join C1's.  Their seconds measure
            # C2's busy time, which overlaps C1's wait time — only the C1
            # rows sum to the report's wall clock.
            report.cost_breakdown.extend(remote.get("cost") or [])
        report.trace = telemetry_tracing.trace_payload(trace_id, spans)

    def _stitch_shards(self, report, shard_replies: list[Any]) -> None:
        """Merge the shard daemons' per-scan telemetry into the report.

        Each shard's C1 counters and peer traffic join the report's C1
        columns (the coordinator's own recorder never saw them); the
        shards' cost rows ride along under ``party="C1-shard{i}"`` — and
        the per-shard C2 windows under ``party="C2"`` — so only the
        coordinator's own C1 rows are expected to sum to wall time.
        """
        stats = report.stats
        for reply in shard_replies:
            if not isinstance(reply, dict):
                continue
            self._stitch_shard_stats(stats, reply)
            report.cost_breakdown.extend(reply.get("cost") or [])
            remote = reply.get("c2") or {}
            report.cost_breakdown.extend(remote.get("cost") or [])
            records = reply.get("records_scanned")
            if records is not None:
                stats.extra["shard_records_scanned"] = (
                    stats.extra.get("shard_records_scanned", 0)
                    + int(records))

    @staticmethod
    def _stitch_shard_stats(stats, reply: dict[str, Any]) -> None:
        """Add one shard scan's counters and traffic to a stats object."""
        c1 = reply.get("c1_counters") or {}
        stats.c1_encryptions += int(c1.get("encryptions", 0))
        stats.c1_exponentiations += int(c1.get("exponentiations", 0))
        stats.c1_homomorphic_additions += int(
            c1.get("homomorphic_additions", 0))
        traffic = reply.get("traffic") or {}
        stats.messages += int(traffic.get("messages", 0))
        stats.ciphertexts_exchanged += int(traffic.get("ciphertexts", 0))
        stats.bytes_transferred += int(traffic.get("bytes_transferred", 0))
        remote = reply.get("c2") or {}
        counters = remote.get("counters") or {}
        stats.c2_encryptions += int(counters.get("encryptions", 0))
        stats.c2_exponentiations += int(counters.get("exponentiations", 0))
        stats.c2_decryptions += int(counters.get("decryptions", 0))

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

    def _scatter_to_shards(self, scan_id: str, query: list[Ciphertext],
                           k: int) -> list[dict[str, Any]]:
        """Fan the distance scan out to every shard daemon, in parallel.

        Each shard is asked over its own short-lived control connection (a
        per-query client: the control protocol is request/reply, so a
        shared client would serialize concurrent queries).  The first
        failure wins: a dead shard daemon surfaces as the typed retriable
        error its client raised, failing only this query.
        """
        from repro.transport.client import DaemonClient

        addresses = self._shard_addresses or []
        replies: list[dict[str, Any] | None] = [None] * len(addresses)
        failures: list[BaseException] = []

        def run(index: int, address: tuple[str, int]) -> None:
            try:
                client = DaemonClient(address, self.codec,
                                      connect_timeout=10.0,
                                      request_deadline=self.io_deadline)
                try:
                    replies[index] = client.request(
                        "transport.scan",
                        {"scan_id": scan_id, "query": query, "k": k},
                        timeout=self.io_deadline)
                finally:
                    client.close()
            except BaseException as exc:  # re-raised on the query thread
                failures.append(exc)

        threads = [threading.Thread(target=run, args=(index, address),
                                    name=f"sknn-scatter-{index}", daemon=True)
                   for index, address in enumerate(addresses)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            failure = failures[0]
            if isinstance(failure, ReproError):
                raise failure
            raise PeerUnavailable(
                f"shard scatter failed: {failure}") from failure
        return [reply for reply in replies if isinstance(reply, dict)]

    def _handle_scan(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Shard daemon: run this slice's distance phase for one scan.

        The reply bundles everything the coordinator needs to stitch a
        complete report: this shard's exact C1 counter deltas (thread
        scope), its peer-link traffic, its cost rows
        (``party="C1-shard{i}"``), the C2 window its scan consumed, and
        its spans.
        """
        if self.shard_index is None:
            raise ConfigurationError(
                "transport.scan is only served by shard daemons "
                "(start with --shard-index/--shard-count)")
        query: list[Ciphertext] = payload["query"]
        k: int = payload["k"]
        scan_id = str(payload["scan_id"])
        scope = OperationCounter()
        ledger = telemetry_profiling.CostLedger(
            sources=(scope,), party=f"C1-shard{self.shard_index}")
        self._track_inflight(1)
        try:
            with counting_scope(scope):
                channel = self._ensure_pool().lease()
                try:
                    with telemetry_tracing.trace(
                            f"shard{self.shard_index}.scan",
                            party=self.party_name, scan=scan_id) as root:
                        trace_id = root.trace_id
                        self._peer_trace_begin(channel, trace_id)
                        # The leased context is exclusively this scan's:
                        # resetting after the telemetry frame makes its
                        # totals exactly the scan's protocol traffic.
                        channel.reset_accounting()
                        protocol = self._build_query_protocol(channel,
                                                              "basic")
                        started = time.perf_counter()
                        with ledger.activate():
                            records = protocol.run_scan(query, k, scan_id)
                        elapsed = time.perf_counter() - started
                        traffic = channel.total_traffic().snapshot()
                    remote = self._peer_collect(channel, trace_id)
                except ChannelError as exc:
                    raise self._peer_failure(channel, exc) from exc
                finally:
                    channel.release()
        finally:
            self._track_inflight(-1)
        spans = [span.as_payload()
                 for span in telemetry_tracing.get_tracer().take(trace_id)]
        self.slow_log.observe(elapsed, protocol="SkNNb-shard",
                              trace_id=trace_id, scan_id=scan_id)
        return {
            "scan_id": scan_id,
            "shard_index": self.shard_index,
            "records_scanned": records,
            "wall_time_seconds": elapsed,
            "c1_counters": scope.snapshot(),
            "traffic": traffic,
            "c2": remote,
            "cost": ledger.finish(),
            "spans": spans,
        }

    def _handle_query(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Run one query on a freshly leased peer context.

        No query lock: every query leases its own context channel from
        the pool and builds its own protocol stack, so N in-flight
        queries pipeline over the shared connections.  The counting scope
        makes this thread's Paillier operations (and, through its own
        scoped window, C2's) attributable to exactly this query no matter
        how many others are concurrently in flight.
        """
        if self.shard_index is not None:
            raise ConfigurationError(
                "shard daemons serve transport.scan only; send queries to "
                "the coordinator C1")
        query: list[Ciphertext] = payload["query"]
        k: int = payload["k"]
        mode = payload.get("mode", "basic")
        scan_id = uuid.uuid4().hex
        shard_replies: list[dict[str, Any]] = []

        def scatter(sid: str, shard_query: list[Ciphertext],
                    shard_k: int) -> None:
            shard_replies.extend(
                self._scatter_to_shards(sid, shard_query, shard_k))

        scope = OperationCounter()
        self._track_inflight(1)
        try:
            with counting_scope(scope):
                channel = self._ensure_pool().lease()
                try:
                    protocol = self._build_query_protocol(
                        channel, mode, scatter=scatter, scan_id=scan_id)
                    # Root the trace here (run_with_report joins it) so
                    # the daemon can stitch C2's spans and counter deltas
                    # into the report.
                    with telemetry_tracing.trace(f"query.{protocol.name}",
                                                 party="C1", k=k) as root:
                        trace_id = root.trace_id
                        self._peer_trace_begin(channel, trace_id)
                        shares = protocol.run_with_report(
                            query, k, distance_bits=self.distance_bits)
                    report = protocol.last_report
                    remote = self._peer_collect(channel, trace_id)
                except ChannelError as exc:
                    raise self._peer_failure(channel, exc) from exc
                finally:
                    channel.release()
        finally:
            self._track_inflight(-1)
        if report is not None:
            shard_spans = [span for reply in shard_replies
                           for span in (reply.get("spans") or [])]
            self._stitch_report(report, trace_id, remote,
                                extra_spans=shard_spans)
            self._stitch_shards(report, shard_replies)
            self.slow_log.observe(report.wall_time_seconds,
                                  protocol=protocol.name,
                                  trace_id=trace_id, k=k)
        return {
            "masks": shares.masks_from_c1,
            "modulus": shares.modulus,
            "delivery_id": shares.delivery_id,
            "report": report.as_payload() if report is not None else None,
        }

    def _handle_query_batch(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Serve a scheduler batch over one leased context.

        The batch's queries run back-to-back on a single context — the
        batch semantics a distributed
        :class:`~repro.service.scheduler.QueryServer` expects — while
        other pipelined queries keep flowing on sibling contexts.
        """
        from repro.core.sknn_base import RunStatsRecorder

        if self.shard_index is not None:
            raise ConfigurationError(
                "shard daemons serve transport.scan only; send batches to "
                "the coordinator C1")
        queries = payload["queries"]
        ks = payload["ks"]
        if len(queries) != len(ks):
            raise ConfigurationError("batch queries and ks differ in length")
        mode = payload.get("mode", "basic")
        shard_replies: list[dict[str, Any]] = []

        def scatter(sid: str, shard_query: list[Ciphertext],
                    shard_k: int) -> None:
            shard_replies.extend(
                self._scatter_to_shards(sid, shard_query, shard_k))

        results = []
        scope = OperationCounter()
        self._track_inflight(1)
        try:
            with counting_scope(scope):
                channel = self._ensure_pool().lease()
                try:
                    protocol = self._build_query_protocol(
                        channel, mode, scatter=scatter,
                        scan_id=uuid.uuid4().hex)
                    with telemetry_tracing.trace(
                            f"batch.{protocol.name}", party="C1",
                            queries=len(queries)) as root:
                        trace_id = root.trace_id
                        self._peer_trace_begin(channel, trace_id)
                        recorder = RunStatsRecorder(protocol.cloud)
                        started = time.perf_counter()
                        for index, (query, k) in enumerate(
                                zip(queries, ks)):
                            if index and self._shard_addresses is not None:
                                # A coordinator protocol is bound to one
                                # scan id; mint a fresh one per query.
                                protocol = self._build_query_protocol(
                                    channel, mode, scatter=scatter,
                                    scan_id=uuid.uuid4().hex)
                            shares = protocol.run(query, k)
                            results.append({
                                "masks": shares.masks_from_c1,
                                "delivery_id": shares.delivery_id,
                            })
                        elapsed = time.perf_counter() - started
                        stats = recorder.finish(
                            f"{protocol.name}-distributed", elapsed)
                    remote = self._peer_collect(channel, trace_id)
                except ChannelError as exc:
                    raise self._peer_failure(channel, exc) from exc
                finally:
                    channel.release()
        finally:
            self._track_inflight(-1)
        spans: list[Any] = list(
            telemetry_tracing.get_tracer().take(trace_id))
        if remote is not None:
            counters = remote.get("counters") or {}
            stats.c2_encryptions += int(counters.get("encryptions", 0))
            stats.c2_exponentiations += int(
                counters.get("exponentiations", 0))
            stats.c2_decryptions += int(counters.get("decryptions", 0))
            spans.extend(remote.get("spans") or [])
        for reply in shard_replies:
            if isinstance(reply, dict):
                self._stitch_shard_stats(stats, reply)
                spans.extend(reply.get("spans") or [])
        self.slow_log.observe(elapsed, protocol=f"{protocol.name}-batch",
                              trace_id=trace_id, queries=len(queries))
        return {
            "results": results,
            "modulus": self.codec.public_key.n,
            "stats": stats.as_payload(),
            "wall_time_seconds": elapsed,
            "trace": telemetry_tracing.trace_payload(trace_id, spans),
        }
