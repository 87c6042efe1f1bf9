"""Client side of the distributed runtime: provisioning, queries, stores.

Three layers, bottom-up:

* :class:`DaemonClient` — one control connection to a party daemon
  (request/reply over ``transport.*`` tags).
* :class:`RemoteCloud` — Bob's (and, for provisioning, Alice's) view of a
  C1+C2 daemon pair: provision both parties, run queries against C1, fetch
  C2's share half over the *separate* C2 connection, assemble
  :class:`~repro.core.roles.ResultShares`.  C1 never sees C2's share — the
  delivery trust boundary of the paper survives the network split.
* :class:`RemoteStore` — the adapter that lets ``SkNNSystem``
  ``mode="distributed"`` drive a :class:`RemoteCloud` like an in-process
  protocol object.
"""

from __future__ import annotations

import socket
import threading
import time
import uuid
from itertools import count
from random import Random
from typing import Any, Sequence

from repro.core.roles import ResultShares
from repro.core.sknn_base import SkNNRunReport
from repro.core.sknn_shard import shard_table
from repro.crypto.paillier import Ciphertext, PaillierKeyPair
from repro.crypto.serialization import (
    dgk_public_key_to_dict,
    private_key_to_dict,
)
from repro.db.encrypted_table import EncryptedTable
from repro.exceptions import (
    ChannelError,
    ConfigurationError,
    DeadlineExceeded,
    PeerUnavailable,
    QueryError,
    ReproError,
    ServiceUnavailable,
)
from repro.network.channel import Message
from repro.resilience.policy import Deadline, RetryPolicy, retry_call
from repro.telemetry import metrics as telemetry_metrics
from repro.transport.daemon import DEFAULT_FETCH_TIMEOUT
from repro.transport.framing import (
    recv_frame,
    send_frame,
    setup_stream_socket,
)
from repro.transport.wire import WireCodec

__all__ = ["DaemonClient", "RemoteCloud", "RemoteStore"]

#: reconstruction table for typed ``transport.error`` payloads — the daemon
#: sends ``{"type", "message", "retriable"}`` and the client re-raises the
#: matching class so retry layers decide without string matching.
_REMOTE_ERRORS: dict[str, type[ReproError]] = {
    "DeadlineExceeded": DeadlineExceeded,
    "PeerUnavailable": PeerUnavailable,
    "ServiceUnavailable": ServiceUnavailable,
    "ConfigurationError": ConfigurationError,
    "QueryError": QueryError,
    "ChannelError": ChannelError,
}


class DaemonClient:
    """One request/reply control connection to a party daemon.

    The connection is established eagerly (a wrong address fails fast) but
    *heals lazily*: any transport failure — broken pipe, blown deadline,
    daemon restart — drops the socket, and the next :meth:`request`
    re-dials and re-runs the ``transport.hello`` handshake transparently.

    Args:
        address: daemon ``(host, port)``.
        codec: shared wire codec (its public key may arrive later).
        connect_timeout: bound on dial + hello.
        request_deadline: default bound (seconds) on one request/reply
            round trip; ``None`` waits indefinitely.  Per-call ``timeout``
            overrides it.
        retry: default :class:`RetryPolicy` applied by :meth:`request`;
            ``None`` (the default) means a single attempt — callers that
            own idempotency keys (:class:`RemoteCloud`) layer their own
            retries on top.
        rng: jitter source for backoff (seedable for deterministic tests).
    """

    def __init__(self, address: tuple[str, int], codec: WireCodec,
                 connect_timeout: float = 30.0,
                 request_deadline: float | None = None,
                 retry: RetryPolicy | None = None,
                 rng: Random | None = None) -> None:
        self.address = address
        self._codec = codec
        self._lock = threading.Lock()
        self.connect_timeout = connect_timeout
        self.request_deadline = request_deadline
        self.retry = retry
        self.rng = rng
        self.role: str = "?"
        self.reconnects = 0
        self._sock: socket.socket | None = None
        self._connect()

    # -- connection management ------------------------------------------------
    def _connect(self) -> None:
        try:
            self._sock = setup_stream_socket(socket.create_connection(
                self.address, timeout=self.connect_timeout))
        except OSError as exc:
            raise PeerUnavailable(
                f"cannot connect to daemon at {self.address[0]}:"
                f"{self.address[1]}: {exc}") from exc
        try:
            hello = self._exchange("transport.hello", {"peer": "client"},
                                   Deadline(self.connect_timeout))
        except ChannelError:
            self._drop()
            raise
        self.role = hello.get("role", self.role)

    def _reconnect(self) -> None:
        self._connect()
        self.reconnects += 1
        telemetry_metrics.get_registry().counter(
            "repro_reconnects_total",
            "Peer/daemon connections re-established after a failure.",
            ("role",)).inc(role="client")

    def _drop(self) -> None:
        """Discard a socket we no longer trust (desync, EOF, deadline)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # -- request/reply --------------------------------------------------------
    def _exchange(self, tag: str, payload: Any, deadline: Deadline) -> Any:
        assert self._sock is not None
        message = Message(sender="client", recipient="daemon", tag=tag,
                          payload=payload)
        try:
            send_frame(self._sock, self._codec.encode_message(message),
                       deadline=deadline.expires_at)
            body = recv_frame(self._sock, deadline=deadline.expires_at)
        except ChannelError:
            # The stream may hold a half-written request or a late reply:
            # drop it so the next request starts on a clean connection.
            self._drop()
            raise
        if body is None:
            self._drop()
            raise PeerUnavailable(
                f"daemon at {self.address[0]}:{self.address[1]} closed the "
                f"connection while handling {tag!r}")
        reply = self._codec.decode_message(body)
        if reply.tag == "transport.error":
            raise self._remote_error(reply.payload)
        expected = (tag + ".ok") if tag != "transport.hello" else "transport.hello_ok"
        if reply.tag != expected:
            self._drop()
            raise ChannelError(
                f"expected reply {expected!r} but got {reply.tag!r}")
        return reply.payload

    def _remote_error(self, payload: Any) -> ReproError:
        """Reconstruct the daemon's exception from a typed error frame."""
        if isinstance(payload, dict) and "message" in payload:
            error_class = _REMOTE_ERRORS.get(str(payload.get("type")),
                                             ChannelError)
            return error_class(f"daemon {self.role}: {payload['message']}")
        return ChannelError(f"daemon {self.role}: {payload}")

    def request(self, tag: str, payload: Any,
                timeout: float | None = None,
                retry: RetryPolicy | None = None) -> Any:
        """Send one control message and return the daemon's reply payload.

        A ``transport.error`` reply raises the reconstructed typed
        exception (:class:`ChannelError` for untyped/legacy payloads).
        ``timeout`` bounds the whole round trip (default: the client's
        ``request_deadline``); ``retry`` overrides the client's policy for
        this call.  Retries silently reconnect a dropped socket first.
        """
        policy = retry if retry is not None else self.retry
        # One absolute deadline shared by every attempt: a hung daemon
        # consumes it once and the call returns within ~1x the configured
        # bound; only *fast* failures (refused connection, typed error
        # replies) leave room for retries.
        deadline = Deadline(timeout if timeout is not None
                            else self.request_deadline)

        def attempt() -> Any:
            with self._lock:
                if self._sock is None:
                    self._reconnect()
                return self._exchange(tag, payload, deadline)

        if policy is None:
            return attempt()
        return retry_call(attempt, policy, op=tag, rng=self.rng,
                          deadline=deadline)

    def close(self) -> None:
        """Close the control connection (idempotent)."""
        self._drop()


class RemoteCloud:
    """A provisioned pair of party daemons, as seen from the client side.

    Args:
        c1_address: ``(host, port)`` of the C1 daemon.
        c2_address: ``(host, port)`` of the C2 daemon.
        fetch_timeout: how long :meth:`query` waits for C2 to file a share.
        retry: retry policy for queries and share fetches (``None`` arms
            the default :class:`RetryPolicy`; pass ``RetryPolicy.none()``
            to disable).  Retries are safe: every query carries a fresh
            idempotency id, so a re-sent request replays the daemon's
            memoized reply instead of re-consuming single-use state.
        request_deadline: bound (seconds) on one request/reply round trip
            against either daemon; ``None`` waits indefinitely.
        rng: backoff-jitter source (seedable for deterministic tests).
    """

    def __init__(self, c1_address: tuple[str, int],
                 c2_address: tuple[str, int],
                 fetch_timeout: float = DEFAULT_FETCH_TIMEOUT,
                 retry: RetryPolicy | None = None,
                 request_deadline: float | None = None,
                 rng: Random | None = None,
                 shard_addresses: Sequence[tuple[str, int]] | None = None
                 ) -> None:
        self.codec = WireCodec()
        self.c1_address = c1_address
        self.c2_address = c2_address
        self.shard_addresses = ([(host, int(port))
                                 for host, port in shard_addresses]
                                if shard_addresses else None)
        self.fetch_timeout = fetch_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.request_deadline = request_deadline
        self._rng = rng if rng is not None else Random()
        self.c1 = DaemonClient(c1_address, self.codec,
                               request_deadline=request_deadline,
                               rng=self._rng)
        self.c2 = DaemonClient(c2_address, self.codec,
                               request_deadline=request_deadline,
                               rng=self._rng)
        #: control connections to the shard C1 daemons (provision/stats
        #: only — queries go through the coordinator, which scatters).
        self.shards = [DaemonClient(address, self.codec,
                                    request_deadline=request_deadline,
                                    rng=self._rng)
                       for address in (self.shard_addresses or [])]
        # Provision payloads kept verbatim so a restarted daemon can be
        # re-provisioned transparently between retry attempts.
        self._provision_payloads: dict[str, dict[str, Any]] | None = None
        self._query_seq = count(1)
        self._client_id = uuid.uuid4().hex[:12]

    def _next_query_id(self) -> str:
        return f"q-{self._client_id}-{next(self._query_seq)}"

    # -- provisioning (Alice's role) ------------------------------------------
    def provision(self, keypair: PaillierKeyPair,
                  encrypted_table: EncryptedTable,
                  distance_bits: int | None = None,
                  seed: int | None = None,
                  precompute_queries: int = 0,
                  k_default: int = 1) -> dict[str, Any]:
        """Ship the secret key to C2 and the encrypted table to C1.

        With ``distance_bits`` (SkNN_m) C1 also gets the public half of the
        DGK key derived from the secret key, which SMIN's comparison runs
        under; C2 re-derives the key pair itself.  C2 is provisioned first
        so that C1's peer dial finds a party that can speak the protocol.  When ``precompute_queries`` is positive,
        each daemon builds and warms its own party-local
        :class:`~repro.crypto.precompute.PrecomputeEngine` sized for that
        many queries (C1 evaluator pools, C2 decryptor pools) — the offline
        work happens in the daemons, where the pools live.

        With ``shard_addresses`` configured, each shard daemon receives its
        horizontal slice of the table (:func:`~repro.core.sknn_shard.
        shard_table`, the slicer the in-process plan uses too) plus its
        global start index, and the coordinator C1 additionally learns the shard
        addresses so queries scatter the distance scan across machines.
        """
        if encrypted_table.public_key != keypair.public_key:
            raise ConfigurationError(
                "encrypted table was produced under a different key pair")
        load = dict(n_records=len(encrypted_table),
                    dimensions=encrypted_table.dimensions,
                    k=k_default, queries=precompute_queries)
        c2_payload = {
            "private_key": private_key_to_dict(keypair.private_key),
            "distance_bits": distance_bits,
            "seed": seed,
            "precompute": (dict(load, sbd_bit_length=distance_bits)
                           if precompute_queries > 0 else None),
        }
        c1_payload = {
            "encrypted_table": encrypted_table.to_dict(),
            "distance_bits": distance_bits,
            "c2_address": [self.c2_address[0], self.c2_address[1]],
            "seed": seed + 1 if seed is not None else None,
            "precompute": (dict(load, sbd_bit_length=distance_bits)
                           if precompute_queries > 0 else None),
        }
        if distance_bits is not None:
            # SkNN_m's comparison runs under the DGK key derived from the
            # secret key: C1 gets its public half from the key's holder
            c1_payload["dgk_public_key"] = dgk_public_key_to_dict(
                keypair.private_key.dgk_public_key())
        shard_payloads: list[dict[str, Any]] = []
        if self.shard_addresses:
            c1_payload["shards"] = [[host, port]
                                    for host, port in self.shard_addresses]
            shard_count = len(self.shard_addresses)
            for index in range(shard_count):
                slice_table, start_index = shard_table(
                    encrypted_table, index, shard_count)
                shard_payloads.append({
                    "encrypted_table": slice_table.to_dict(),
                    "distance_bits": distance_bits,
                    "c2_address": [self.c2_address[0], self.c2_address[1]],
                    "seed": seed + 2 + index if seed is not None else None,
                    "shard_index": index,
                    "shard_count": shard_count,
                    "start_index": start_index,
                    "precompute": None,  # shards run only the SSED scan
                })
        c2_reply = self.c2.request("transport.provision", c2_payload)
        # Only now can ciphertexts travel on these connections.
        self.codec.public_key = keypair.public_key
        shard_replies = [
            client.request("transport.provision", payload)
            for client, payload in zip(self.shards, shard_payloads)
        ]
        c1_reply = self.c1.request("transport.provision", c1_payload)
        self._provision_payloads = {"c1": c1_payload, "c2": c2_payload,
                                    "shards": shard_payloads}
        reply = {"c1": c1_reply, "c2": c2_reply}
        if shard_replies:
            reply["shards"] = shard_replies
        return reply

    def ensure_provisioned(self) -> None:
        """Re-provision any daemon that lost its state (e.g. restarted).

        Pings both daemons and re-sends the stored provision payloads —
        C2 first, then C1 (whose peer dial needs a provisioned C2) — when a
        daemon reports ``provisioned: false``.  A no-op for clouds that
        never provisioned through this object (nothing stored to replay).
        """
        if self._provision_payloads is None:
            return
        if not self.c2.request("transport.ping", None).get("provisioned"):
            self.c2.request("transport.provision",
                            self._provision_payloads["c2"])
        for client, payload in zip(self.shards,
                                   self._provision_payloads.get("shards", [])):
            if not client.request("transport.ping", None).get("provisioned"):
                client.request("transport.provision", payload)
        if not self.c1.request("transport.ping", None).get("provisioned"):
            self.c1.request("transport.provision",
                            self._provision_payloads["c1"])

    def clone(self) -> "RemoteCloud":
        """A second, independent connection pair to the same daemons.

        The clone shares the key and provision payloads but owns its own
        sockets, so closing it (e.g. when a serving layer built on top shuts
        down) never severs the original connections.
        """
        other = RemoteCloud(self.c1_address, self.c2_address,
                            fetch_timeout=self.fetch_timeout,
                            retry=self.retry,
                            request_deadline=self.request_deadline,
                            shard_addresses=self.shard_addresses)
        other.codec.public_key = self.codec.public_key
        other._provision_payloads = self._provision_payloads
        return other

    # -- queries (Bob's role) --------------------------------------------------
    def _recover(self, error: BaseException, attempt: int) -> None:
        """Between-attempt hook: heal whatever the failure broke.

        A restarted daemon answers its ping with ``provisioned: false`` and
        gets its stored provision payload re-sent; a merely-dropped
        connection heals inside :meth:`DaemonClient.request`.  Failures
        here are swallowed — the next attempt surfaces whatever is still
        wrong, and the retry schedule keeps backing off.
        """
        try:
            self.ensure_provisioned()
        except ReproError:
            pass

    def query(self, encrypted_query: Sequence[Ciphertext], k: int,
              mode: str = "basic"
              ) -> tuple[ResultShares, SkNNRunReport]:
        """Run one kNN query across the two daemons.

        C1 answers with its mask share plus the delivery id; the decrypted
        half is fetched from C2 directly, and the two halves are assembled
        into complete :class:`ResultShares` here — at Bob, the only place
        both halves may meet.

        The whole operation is idempotently retried: the query id keys
        C1's reply cache (a resend replays the memoized answer) and doubles
        as the fetch attempt token on C2 (a re-fetch replays the delivered
        share).  When the *fetch* phase fails the id is rotated, so the
        retry re-runs the query end to end instead of replaying a cached
        reply whose delivery id died with C2.
        """
        state = {"query_id": self._next_query_id()}

        def run_once() -> tuple[ResultShares, SkNNRunReport]:
            reply = self.c1.request("transport.query", {
                "mode": mode, "k": k, "query": list(encrypted_query),
                "query_id": state["query_id"],
            })
            try:
                shares = self._complete_shares(reply["masks"],
                                               reply["modulus"],
                                               reply["delivery_id"],
                                               attempt=state["query_id"])
            except ReproError:
                state["query_id"] = self._next_query_id()
                raise
            return shares, SkNNRunReport.from_payload(reply["report"])

        return retry_call(run_once, self.retry, op="query", rng=self._rng,
                          on_retry=self._recover)

    def _complete_shares(self, masks: list[list[int]], modulus: int,
                         delivery_id: int,
                         attempt: str | None = None) -> ResultShares:
        """Fetch C2's share half and assemble the complete shares.

        An *unreachable* C2 (connection refused/reset — it may be mid
        restart) is retried here with the **same** attempt token: a C2
        with a durable mailbox comes back holding the share, so the retry
        returns the bit-identical value with zero query re-execution.
        Only :class:`PeerUnavailable` earns this treatment — a
        :class:`DeadlineExceeded` fetch means the share is genuinely gone
        (an amnesiac restart voided it), and propagates so the caller
        rotates the query id and re-runs end to end.
        """
        payload = {
            "delivery_id": delivery_id,
            "timeout": self.fetch_timeout,
            "attempt": attempt,
        }
        for retry_index in count():
            try:
                masked_values = self.c2.request(
                    "transport.fetch_share", payload,
                    timeout=self._fetch_request_timeout())
                break
            except PeerUnavailable:
                if retry_index + 1 >= self.retry.max_attempts:
                    raise
                time.sleep(self.retry.backoff_seconds(retry_index,
                                                      rng=self._rng))
                # On a retry the share is either already recovered in the
                # mailbox or gone for good — don't hold the daemon-side
                # wait open for the full fetch window.
                payload = dict(payload,
                               timeout=min(self.fetch_timeout, 5.0))
        return ResultShares(masks_from_c1=masks,
                            masked_values_from_c2=masked_values,
                            modulus=modulus, delivery_id=delivery_id)

    def _fetch_request_timeout(self) -> float | None:
        """Round-trip bound for a fetch: the daemon may legitimately hold
        the request for ``fetch_timeout`` while C2 finishes decrypting."""
        if self.request_deadline is None:
            return None
        return max(self.request_deadline, self.fetch_timeout + 5.0)

    # -- maintenance -----------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Every daemon's introspection payload."""
        stats = {"c1": self.c1.request("transport.stats", None),
                 "c2": self.c2.request("transport.stats", None)}
        if self.shards:
            stats["shards"] = [client.request("transport.stats", None)
                               for client in self.shards]
        return stats

    def metrics(self) -> dict[str, Any]:
        """Both daemons' metric registries (Prometheus text + snapshot)."""
        return {"c1": self.c1.request("transport.metrics", None),
                "c2": self.c2.request("transport.metrics", None)}

    def shutdown_daemons(self) -> None:
        """Ask every daemon to exit (best effort)."""
        for client in (*self.shards, self.c1, self.c2):
            try:
                client.request("transport.shutdown", None)
            except ChannelError:
                pass

    def close(self) -> None:
        """Close the control connections (daemons keep running)."""
        self.c1.close()
        self.c2.close()
        for client in self.shards:
            client.close()


class RemoteStore:
    """The one client adapter over a :class:`RemoteCloud`.

    Gives a daemon pair the instrumented-runner surface of the in-process
    protocol classes (``run_with_report``, leaving the report the C1 daemon
    built in ``last_report``), so ``SkNNSystem`` ``mode="distributed"``
    drives it like any protocol object.  C2's share half is fetched over
    the cloud's own C2 connection.

    ``supervisor``, when given, is shut down by :meth:`close` (the system
    owns the daemon processes it spawned).
    """

    def __init__(self, remote: RemoteCloud, mode: str = "basic",
                 supervisor: Any = None) -> None:
        self.remote = remote
        self.mode = mode
        self.supervisor = supervisor
        self.last_report: SkNNRunReport | None = None

    def run_with_report(self, encrypted_query: Sequence[Ciphertext], k: int,
                        distance_bits: int | None = None) -> ResultShares:
        """One query; ``distance_bits`` is the daemons' own (provisioned)."""
        shares, self.last_report = self.remote.query(encrypted_query, k,
                                                     mode=self.mode)
        return shares

    def close(self) -> None:
        if self.supervisor is not None:
            self.supervisor.shutdown()
        else:
            self.remote.close()
