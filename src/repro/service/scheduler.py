"""Multi-client query serving: sessions, batched scheduling, per-query answers.

This module turns the one-query-at-a-time protocol stack into a serving
layer.  Three pieces cooperate:

* :class:`ServiceSession` — one authorized Bob.  Each session owns its own
  :class:`~repro.core.roles.QueryClient` (its own randomness, its own cost
  accounting), encrypts its queries locally and reconstructs its own results
  from the two shares, so concurrent users are cryptographically isolated
  from each other exactly as in the paper's single-user setting.
* :class:`QueryScheduler` — a thread-safe FIFO of submitted queries that
  groups them into batches of at most ``batch_size``.  All queries in a batch
  share one scan pass over the sharded store, amortizing query-encryption
  and per-record task-serialization overhead.
* :class:`QueryServer` — accepts many concurrent sessions, drains the
  scheduler (either on a background serving thread started with
  :meth:`QueryServer.start`, or synchronously via :meth:`QueryServer.flush`)
  and resolves every :class:`PendingQuery` with a fully populated
  :class:`~repro.core.system.QueryAnswer` including per-phase timings.

The server answers queries through a :class:`~repro.service.sharding.
ShardedCloud`, so the distance phase is scatter-gathered across shards on a
persistent worker pool.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from random import Random
from typing import Sequence

from repro.core.roles import QueryClient
from repro.core.sknn_secure import check_query_domain
from repro.core.system import QueryAnswer
from repro.crypto.paillier import Ciphertext
from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine
from repro.exceptions import ConfigurationError
from repro.service.sharding import ShardedCloud
from repro.telemetry import SlowQueryLog
from repro.telemetry import metrics as _metrics

__all__ = ["PendingQuery", "ServiceSession", "QueryScheduler", "QueryServer",
           "ServerStats"]

#: the longest the background serving thread holds a partial batch open:
#: it dispatches as soon as ``min(batch_size, open sessions)`` queries are
#: queued or the server is stopping, and after this long at the latest
BATCH_WINDOW_SECONDS = 0.01
#: cap on the pool items the serving thread precomputes per idle scheduler
#: slot (only relevant when the sharded store carries a
#: :class:`~repro.crypto.precompute.PrecomputeEngine`); keeps each refill
#: burst short so a freshly enqueued query is picked up promptly
PRECOMPUTE_IDLE_BUDGET = 32
#: wall-time threshold of a batch for the slow-query log
SLOW_QUERY_SECONDS = 1.0


@dataclass
class _QueryRequest:
    """Internal record of one submitted query."""

    request_id: int
    session: "ServiceSession"
    encrypted_query: list[Ciphertext]
    k: int
    encrypt_seconds: float
    submitted_at: float
    done: threading.Event = field(default_factory=threading.Event)
    answer: QueryAnswer | None = None
    error: BaseException | None = None


class PendingQuery:
    """Handle for a submitted query; resolves to a :class:`QueryAnswer`."""

    def __init__(self, server: "QueryServer", request: _QueryRequest) -> None:
        self._server = server
        self._request = request

    @property
    def request_id(self) -> int:
        """Server-wide sequence number of this query."""
        return self._request.request_id

    def done(self) -> bool:
        """Whether the answer is available."""
        return self._request.done.is_set()

    def result(self, timeout: float | None = None) -> QueryAnswer:
        """Block until the answer is available and return it.

        When the server's background thread is not running, the calling
        thread drives the scheduler itself (synchronous mode), so single-
        threaded callers never deadlock.
        """
        if not self._request.done.is_set() and not self._server.running:
            self._server.flush()
        if not self._request.done.wait(timeout):
            raise TimeoutError(
                f"query {self._request.request_id} not answered in time")
        if self._request.error is not None:
            raise self._request.error
        assert self._request.answer is not None
        return self._request.answer


class ServiceSession:
    """One authorized query user (Bob) connected to a :class:`QueryServer`."""

    def __init__(self, server: "QueryServer", session_id: str,
                 rng: Random | None = None,
                 engine: PrecomputeEngine | None = None) -> None:
        self.server = server
        self.session_id = session_id
        self.client = QueryClient(server.store.public_key,
                                  server.store.dimensions, rng=rng,
                                  engine=engine)

    def submit(self, query_record: Sequence[int], k: int) -> PendingQuery:
        """Encrypt the query locally and enqueue it with the server."""
        return self.server.submit(self, query_record, k)

    def query(self, query_record: Sequence[int], k: int,
              timeout: float | None = None) -> QueryAnswer:
        """Convenience: submit and wait for the answer."""
        return self.submit(query_record, k).result(timeout)


class QueryScheduler:
    """Thread-safe FIFO that hands out batches of at most ``batch_size``."""

    def __init__(self, batch_size: int = 4) -> None:
        if batch_size < 1:
            raise ConfigurationError("batch size must be >= 1")
        self.batch_size = batch_size
        self._queue: deque[_QueryRequest] = deque()
        # Reentrant so `pending` can be read while holding the condition.
        self._lock = threading.RLock()
        self.not_empty = threading.Condition(self._lock)

    def enqueue(self, request: _QueryRequest) -> None:
        """Add a request and wake the serving thread."""
        with self.not_empty:
            self._queue.append(request)
            self.not_empty.notify()

    def next_batch(self) -> list[_QueryRequest]:
        """Pop up to ``batch_size`` requests (may be empty; never blocks)."""
        with self._lock:
            batch = []
            while self._queue and len(batch) < self.batch_size:
                batch.append(self._queue.popleft())
            return batch

    @property
    def pending(self) -> int:
        """Number of queued, not-yet-served requests."""
        with self._lock:
            return len(self._queue)


@dataclass
class ServerStats:
    """Aggregate serving statistics (the benchmark's throughput numbers).

    All mutation goes through :meth:`record_batch` and all multi-field
    reads through :meth:`snapshot` — both hold the stats lock, so readers
    polling a live server (``transport.stats``, benchmark emitters) never
    see a batch's query count without its busy time.
    """

    queries_served: int = 0
    batches_served: int = 0
    busy_seconds: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record_batch(self, queries: int, elapsed: float) -> None:
        """Account one executed batch atomically."""
        with self._lock:
            self.queries_served += queries
            self.batches_served += 1
            self.busy_seconds += elapsed

    def snapshot(self) -> dict[str, float]:
        """A mutually consistent view of every field and derived rate."""
        with self._lock:
            queries = self.queries_served
            batches = self.batches_served
            busy = self.busy_seconds
        return {
            "queries_served": queries,
            "batches_served": batches,
            "busy_seconds": busy,
            "mean_batch_size": queries / batches if batches else 0.0,
            "queries_per_second": queries / busy if busy else 0.0,
        }

    @property
    def mean_batch_size(self) -> float:
        """Average number of queries per executed batch."""
        if self.batches_served == 0:
            return 0.0
        return self.queries_served / self.batches_served


class QueryServer:
    """Accepts concurrent Bob sessions and serves them in scheduled batches.

    Args:
        store: the :class:`~repro.service.sharding.ShardedCloud` answering
            the batches (in-process scatter-gather over the worker pool).
        batch_size: maximum queries grouped into one scan pass.
        rng: optional deterministic randomness source; per-session client
            RNGs are derived from it so test runs are reproducible.
        session_pool_size: when positive, every session gets its own
            :class:`~repro.crypto.precompute.PrecomputeEngine` of this size,
            on the session's rng, so Bob-side query encryption is a cheap
            multiply too.
    """

    def __init__(self, store: ShardedCloud, batch_size: int = 4,
                 rng: Random | None = None,
                 session_pool_size: int = 0) -> None:
        self.store = store
        self.scheduler = QueryScheduler(batch_size)
        self.rng = rng
        self.session_pool_size = session_pool_size
        self.stats = ServerStats()
        self.slow_log = SlowQueryLog(threshold_seconds=SLOW_QUERY_SECONDS)
        self.sessions: dict[str, ServiceSession] = {}
        self._request_ids = itertools.count(1)
        self._session_ids = itertools.count(1)
        self._serve_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        _metrics.get_registry().add_collector(self._collect_metrics)

    def _collect_metrics(self, registry: "_metrics.MetricsRegistry") -> None:
        """Scrape-time collector mirroring serving state into the registry."""
        registry.gauge(
            "repro_scheduler_queue_depth",
            "Queries queued and not yet dispatched to a batch.").set(
                self.scheduler.pending)
        registry.gauge(
            "repro_scheduler_sessions",
            "Open query sessions.").set(len(self.sessions))
        for name, value in self.stats.snapshot().items():
            registry.gauge(
                "repro_scheduler_serving",
                "Aggregate serving statistics of the query scheduler.",
                ("stat",)).set(value, stat=name)

    # -- sessions -----------------------------------------------------------
    def open_session(self, name: str | None = None) -> ServiceSession:
        """Register a new query user and return their session."""
        session_id = name if name is not None else f"bob-{next(self._session_ids)}"
        if session_id in self.sessions:
            raise ConfigurationError(f"session {session_id!r} already exists")
        session_rng = (Random(self.rng.getrandbits(63))
                       if self.rng is not None else None)
        engine = None
        if self.session_pool_size > 0:
            engine = PrecomputeEngine(
                self.store.public_key, rng=session_rng,
                config=PrecomputeConfig(obfuscators=self.session_pool_size))
            engine.warm()
        session = ServiceSession(self, session_id, rng=session_rng,
                                 engine=engine)
        self.sessions[session_id] = session
        return session

    # -- submission ---------------------------------------------------------
    def submit(self, session: ServiceSession, query_record: Sequence[int],
               k: int) -> PendingQuery:
        """Encrypt (client-side) and enqueue one query.

        Malformed queries (wrong arity, a value outside the schema, bad
        ``k``) raise immediately at the submitting caller instead of being
        enqueued, so they can never poison a batch shared with other
        sessions' queries; the schema is checked before anything is
        encrypted.
        """
        check_query_domain(self.store.encrypted_table.schema, query_record)
        started = time.perf_counter()
        encrypted_query = session.client.encrypt_query(query_record)
        encrypt_elapsed = time.perf_counter() - started
        self.store.validate_query(encrypted_query, k)
        request = _QueryRequest(
            request_id=next(self._request_ids),
            session=session,
            encrypted_query=encrypted_query,
            k=k,
            encrypt_seconds=encrypt_elapsed,
            submitted_at=time.perf_counter(),
        )
        self.scheduler.enqueue(request)
        return PendingQuery(self, request)

    # -- execution ----------------------------------------------------------
    def flush(self) -> int:
        """Synchronously serve everything currently queued; returns count."""
        served = 0
        while True:
            batch = self.scheduler.next_batch()
            if not batch:
                return served
            self._serve_batch(batch)
            served += len(batch)

    def _serve_batch(self, batch: list[_QueryRequest]) -> None:
        """Execute one batch over the store and resolve its requests.

        The store's runner measures the batch once; every request gets a
        copy of that report stamped with its own ``k`` and its own phase
        split — Bob's encrypt/queue/reconstruct times around an even share
        of the batch's phases — while ``stats``, ``cost_breakdown`` and
        ``trace`` stay the batch's own objects, shared by all its answers
        (the scan pass they measure was shared too).
        """
        # One consumer at a time: the two-cloud channel and the shard pool
        # are shared state, so batch execution is serialized even when both
        # a background thread and a flushing caller are active.
        with self._serve_lock:
            started = time.perf_counter()
            try:
                all_shares = self.store.answer_batch_with_report(
                    [request.encrypted_query for request in batch],
                    [request.k for request in batch],
                )
            except BaseException as error:  # resolve waiters, then re-raise
                for request in batch:
                    request.error = error
                    request.done.set()
                raise
            elapsed = time.perf_counter() - started
            batch_report = self.store.last_report
            self.stats.record_batch(len(batch), elapsed)
            registry = _metrics.get_registry()
            registry.counter(
                "repro_scheduler_batches_total",
                "Batches executed by the query scheduler.",
                ("protocol",)).inc(protocol=self.store.name)
            registry.histogram(
                "repro_batch_seconds", "Wall time of one scheduler batch.",
                ("protocol",)).observe(
                    elapsed, protocol=self.store.name)
            self.slow_log.observe(elapsed,
                                  protocol=self.store.name,
                                  queries=len(batch))

        share = 1.0 / len(batch)
        for request, shares in zip(batch, all_shares):
            reconstruct_started = time.perf_counter()
            neighbors = request.session.client.reconstruct(shares)
            reconstruct_elapsed = time.perf_counter() - reconstruct_started
            report = dataclasses.replace(
                batch_report, protocol=self.store.name, k=request.k,
                phase_seconds={
                    "encrypt": request.encrypt_seconds,
                    "queue_wait": started - request.submitted_at,
                    **{phase: seconds * share for phase, seconds
                       in batch_report.phase_seconds.items()},
                    "reconstruct": reconstruct_elapsed,
                })
            request.answer = QueryAnswer(
                neighbors=neighbors,
                report=report,
                client_encrypt_seconds=request.encrypt_seconds,
                client_reconstruct_seconds=reconstruct_elapsed,
            )
            request.done.set()

    # -- background serving thread ------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the background serving thread is active."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the background serving thread (idempotent)."""
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._serve_loop,
                                        name="sknn-query-server", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the serving thread, draining anything still queued."""
        if self._thread is None:
            return
        self._stop.set()
        with self.scheduler.not_empty:
            self.scheduler.not_empty.notify_all()
        self._thread.join()
        self._thread = None
        self.flush()

    def close(self) -> None:
        """Stop serving and release the sharded store's worker pool."""
        self.stop()
        _metrics.get_registry().remove_collector(self._collect_metrics)
        self.store.close()

    def __enter__(self) -> "QueryServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _wait_for_batch(self) -> None:
        """Hold a partial batch open until it can fill, the server stops,
        or ``BATCH_WINDOW_SECONDS`` pass, whichever comes first.

        A batch can fill once every open session has a query queued (or
        ``batch_size`` are), so a lone session's query is dispatched at once.
        """
        scheduler = self.scheduler

        def can_dispatch() -> bool:
            target = min(scheduler.batch_size, len(self.sessions))
            return self._stop.is_set() or scheduler.pending >= target

        with scheduler.not_empty:
            scheduler.not_empty.wait_for(can_dispatch,
                                         timeout=BATCH_WINDOW_SECONDS)

    def _serve_loop(self) -> None:
        while not self._stop.is_set():
            with self.scheduler.not_empty:
                if self.scheduler.pending == 0:
                    self.scheduler.not_empty.wait(timeout=0.1)
            if self.scheduler.pending == 0:
                # Idle slot: spend it refilling the precomputation pools so
                # the next query's obfuscators/masks are already paid for.
                self.store.refill_precompute(PRECOMPUTE_IDLE_BUDGET)
                continue
            self._wait_for_batch()
            batch = self.scheduler.next_batch()
            if not batch:
                continue
            try:
                self._serve_batch(batch)
            except Exception:
                # The batch's waiters were already resolved with the error;
                # the serving thread must survive one bad batch so the other
                # sessions keep getting answers.
                continue
