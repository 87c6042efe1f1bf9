"""The in-process scan plan — Section 5.3 / Figure 3 of the paper, generalised.

The paper observes that "the computations involved on each data record are
independent of others", parallelizes the per-record work of SkNN_b with OpenMP
over the 6 cores of its test machine, and measures a ~6x speedup (Figure 3).

This module holds the one implementation of that idea that runs inside a
single process tree.  :class:`ShardedCloud` partitions ``Epk(T)`` into
contiguous slices (:func:`~repro.core.sknn_shard.shard_bounds`), cuts every
slice into chunk tasks (:func:`chunk_records`), scatters the tasks over a
:class:`PersistentWorkerPool`, gathers the plaintext distances, selects with
:func:`~repro.core.sknn_base.top_k` and runs the standard two-share delivery
— for a whole *batch* of queries in one scan pass.
:class:`ParallelSkNNBasic`, the paper's Figure 3 experiment, is its one-slice
configuration answering a batch of one.

The unit of parallel work is the paper's — *a record's SSED computation* —
shipped a contiguous chunk of records at a time.  A worker does not
re-implement that computation: it builds a two-party setting of its own and
runs :meth:`SSED.run_many <repro.protocols.ssed.
SecureSquaredEuclideanDistance.run_many>` on it, then decrypts the distances
(which SkNN_b reveals to C2 by design), packed as SkNN_b's selection packs
them — see :func:`ssed_chunk_worker`.
Each worker so plays both cloud roles for its records, and the values its
decryptor sees are the masked values C2 sees in the serial protocol *by
construction*: it is the same class, covered by the same transcript tests,
so the leakage profile is unchanged.  Every slice is a C1-role party: it sees
only ciphertexts plus the plaintext distances SkNN_b already reveals, so
slicing C1 does not change what leaks either.

That the workers decrypt their own slices is what this plan is for: the
driver receives plaintext distances, never decrypts one, and performs only
the ``2·k·m`` operations of the delivery (e2e's ``serve_local_k512`` holds
its ``crypto_ops_per_query`` at 32 under a 1% bound).  Across machines the
workers must not hold the secret key, so shard daemons hand the coordinator
*ciphertexts* and the serial protocol selects — that placement is
:mod:`repro.core.sknn_shard`, which shares the slicer, the SSED protocol and
the selection rule with this one and, because of the key, nothing after the
scan.

Backends:

* ``"process"`` — :class:`concurrent.futures.ProcessPoolExecutor`; true
  parallelism across cores, the analogue of the paper's OpenMP loop.
* ``"thread"``  — :class:`concurrent.futures.ThreadPoolExecutor`; on the
  default ``openssl`` bigint backend every modular power releases the GIL
  (``BN_mod_exp`` through ctypes), so threads overlap the exponentiations.
  On the ``python`` backend the GIL serializes big-integer arithmetic and
  this shows little speedup.
* ``"serial"``  — same code path without a pool (baseline for speedup plots).

Workers are hosted by a :class:`PersistentWorkerPool`, created lazily on the
first query and **reused across queries** — pool start-up (process spawning)
is paid once per deployment instead of once per query, which matters for the
multi-query serving layer in :mod:`repro.service`.  Call
:meth:`ShardedCloud.close` (or use the instance as a context manager) to
release the workers.
"""

from __future__ import annotations

import gc
import os
import threading
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from random import Random
from typing import Callable, Literal, Sequence

from repro.core.cloud import FederatedCloud
from repro.core.roles import ResultShares
from repro.core.sknn_base import SkNNProtocol, top_k
from repro.core.sknn_basic import distance_width, packing_slots
from repro.core.sknn_shard import shard_bounds
from repro.crypto.backend import get_backend, set_backend
from repro.crypto.paillier import (
    Ciphertext,
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.crypto.precompute import PrecomputeEngine
from repro.db.encrypted_table import EncryptedRecord
from repro.exceptions import ConfigurationError, ServiceUnavailable
from repro.network.party import TwoPartySetting
from repro.protocols.ssed import SecureSquaredEuclideanDistance, scan_packs
from repro.telemetry import profiling as _profiling
from repro.telemetry import tracing as _tracing

__all__ = [
    "ShardedCloud",
    "ParallelSkNNBasic",
    "TableShard",
    "PersistentWorkerPool",
    "ssed_chunk_worker",
    "chunk_records",
    "scan_tasks",
]

Backend = Literal["thread", "process", "serial"]

#: Chunked worker task: (chunk start index, several records' ciphertext ints,
#: several queries' ciphertext ints, modulus N, prime p, prime q, RNG seed,
#: bigint backend name, pool slice, attribute width, distance slot width).
#: One task ships a
#: whole contiguous slice of the table through one SSED round per query — key
#: reconstruction, obfuscator-table reuse and batched CRT decryption are
#: amortized over every (record, query) pair of the chunk.  The backend name
#: travels with the task because spawned worker processes do not inherit a
#: programmatically selected backend (e.g. the CLI's ``--crypto-backend``).
#: The *pool slice* is a list of single-use precomputed obfuscation factors
#: drained from the driver's precomputation engine (``None`` without one):
#: the worker's engine, so the mask and square-sum encryptions are hot-path
#: multiplications while it lasts.  The *attribute width* is SSED's
#: ``attribute_bits`` (:meth:`~repro.protocols.ssed.
#: SecureSquaredEuclideanDistance.run_many`; ``None``: uniform masks), the
#: *distance slot width* the worker packs its distances at before
#: decrypting them (:func:`~repro.core.sknn_basic.distance_width`).
ChunkWorkerTask = tuple[
    int, list[list[int]], list[list[int]], int, int, int, int, str,
    "list[int] | None", "int | None", int]

#: chunks each worker gets per slice: enough that the pool keeps every worker
#: busy, few enough that per-task fixed costs amortize over many records
_CHUNKS_PER_WORKER = 4


#: Per-process cache of reconstructed key objects, keyed by the modulus.
#: Worker processes persist across queries (PersistentWorkerPool), so the
#: keys — and with them the public key's fixed-base obfuscator table — are
#: rebuilt once per process lifetime instead of once per task.  Bounded:
#: the serial/thread backends run workers in the driver process, where an
#: unbounded cache would pin one ~2 MB comb table per key rotation forever.
#: Locked: the thread backend runs workers concurrently in one process.
_WORKER_KEYS: dict[int, PaillierKeyPair] = {}
_WORKER_KEYS_MAX = 4
_WORKER_KEYS_LOCK = threading.Lock()


def _worker_keys(n: int, p: int, q: int) -> PaillierKeyPair:
    """Reconstruct (or fetch the cached) key objects for a worker process."""
    with _WORKER_KEYS_LOCK:
        cached = _WORKER_KEYS.get(n)
        if cached is None:
            public_key = PaillierPublicKey(n)
            cached = PaillierKeyPair(public_key,
                                     PaillierPrivateKey(public_key, p, q))
            while len(_WORKER_KEYS) >= _WORKER_KEYS_MAX:
                _WORKER_KEYS.pop(next(iter(_WORKER_KEYS)))
            _WORKER_KEYS[n] = cached
    return cached


def ssed_chunk_worker(task: ChunkWorkerTask) -> tuple[int, list[list[int]]]:
    """Squared distances of one chunk of contiguous records to every query.

    The unit of parallel work of the in-process scan: the worker plays both
    cloud roles for its records by *running the protocol* — a
    :class:`~repro.network.party.TwoPartySetting` of its own over the
    process-cached key objects (never the driver's, so the driver's counters
    and traffic stay driver-side), seeded from the task, on which it runs
    :meth:`~repro.protocols.ssed.SecureSquaredEuclideanDistance.run_many`
    per query and decrypts the distances packed, as C2 does in SkNN_b.  The
    shipped pool slice becomes an engine on the worker's rng, attached to
    both parties, so their encryptions draw it before the key's own kernel
    (:meth:`~repro.network.party.Party.encrypt_batch`).  The setting, and
    with it the channel's transcript, lives for this task only.  The worker
    aligns its process-wide bigint backend with the driver's (carried in
    the task) before computing.

    Returns:
        ``(chunk_start_index, distances[record][query])``.
    """
    # Chaos hook: kill exactly one worker mid-scatter.  The sentinel path in
    # REPRO_CHAOS_WORKER_KILL is unlinked atomically, so of all the workers
    # racing for it precisely one wins — and dies without any cleanup
    # (``os._exit`` skips atexit and executor bookkeeping, the closest a
    # Python worker gets to SIGKILL-ing itself), breaking the process pool.
    kill_sentinel = os.environ.get("REPRO_CHAOS_WORKER_KILL")
    if kill_sentinel:
        try:
            os.unlink(kill_sentinel)
        except OSError:
            pass
        else:
            os._exit(1)

    (start_index, record_rows, queries, n, p, q, seed, backend_name,
     pool_slice, attribute_bits, distance_slot_width) = task
    set_backend(backend_name)
    setting = TwoPartySetting.create(_worker_keys(n, p, q), rng=Random(seed))
    public_key = setting.public_key
    engine = PrecomputeEngine(public_key, rng=setting.evaluator.rng)
    engine.adopt(list(pool_slice or ()))
    setting.attach_engine(engine, engine)
    ssed = SecureSquaredEuclideanDistance(setting)
    records = [[Ciphertext(public_key, value) for value in row]
               for row in record_rows]
    per_query = [
        public_key.unpack(
            setting.decryptor.decrypt_residue_batch(public_key.pack(
                ssed.run_many([Ciphertext(public_key, value)
                               for value in query], records,
                              attribute_bits),
                distance_slot_width)),
            distance_slot_width, len(records))
        for query in queries
    ]
    return start_index, [list(row) for row in zip(*per_query)]


def scan_tasks(n_records: int, shards: int,
               workers: int) -> list[tuple[int, int]]:
    """The global ``(start, stop)`` of every chunk task of a scan.

    Each shard's slice (:func:`~repro.core.sknn_shard.shard_bounds`) cut by
    :func:`chunk_records` for ``workers // shards`` workers (at least one):
    what :class:`ShardedCloud` ships, and what its warm pool is sized for
    (:func:`~repro.analysis.cost_model.pool_targets`' ``worker_chunks``).
    """
    per_shard = max(1, workers // shards)
    return [(start + low, start + high)
            for start, stop in shard_bounds(n_records, shards)
            for low, high in chunk_records(stop - start, per_shard)]


def chunk_records(count: int, workers: int) -> list[tuple[int, int]]:
    """Split ``count`` records into contiguous fixed-size ``(start, stop)`` chunks.

    Aims for ``workers * 4`` chunks (see ``_CHUNKS_PER_WORKER``); the last
    chunk takes the remainder.
    """
    if count <= 0:
        return []
    target = max(workers, 1) * _CHUNKS_PER_WORKER
    size = max(1, -(-count // target))
    return [(start, min(start + size, count))
            for start in range(0, count, size)]


class PersistentWorkerPool:
    """A worker pool created once and reused across queries.

    The seed implementation created a fresh :class:`ProcessPoolExecutor`
    inside every query, paying process spawn-up per query.  This class hoists
    the executor to deployment scope: it is created lazily on the first
    :meth:`map` call and reused until :meth:`close` — exactly the lifetime a
    query-serving system needs.  Instances are context managers.

    The process backend additionally tolerates worker death: tasks are
    submitted individually, and when a worker crash breaks the pool
    (:class:`BrokenProcessPool`) the executor is discarded, a fresh one is
    spawned, and **only the lost tasks** are resubmitted — up to
    ``task_retries`` respawn rounds.
    Tasks must therefore be idempotent and self-contained (the SSED chunk
    tasks are: each carries its own RNG seed, so a resubmitted chunk
    reproduces bit-identical distances).  When retries are exhausted the
    pool raises the typed, retriable
    :class:`~repro.exceptions.ServiceUnavailable` so the serving layer can
    shed the query instead of returning partial results.

    Args:
        workers: number of parallel workers.
        backend: ``"process"``, ``"thread"`` or ``"serial"`` (no pool).
        task_retries: respawn-and-resubmit rounds per :meth:`map` call on
            the process backend (``0`` disables recovery).
    """

    def __init__(self, workers: int = 6, backend: Backend = "process",
                 task_retries: int = 2) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if backend not in ("thread", "process", "serial"):
            raise ConfigurationError(f"unknown backend {backend!r}")
        if task_retries < 0:
            raise ConfigurationError("task_retries must be >= 0")
        self.workers = workers
        self.backend = backend
        self.task_retries = task_retries
        self.respawns = 0  # executors discarded after a worker crash
        self._executor: Executor | None = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    def _ensure_executor(self) -> Executor | None:
        if self._closed:
            raise ConfigurationError("worker pool has been closed")
        if self.backend == "serial" or self.workers == 1:
            return None
        if self._executor is None:
            if self.backend == "thread":
                self._executor = ThreadPoolExecutor(max_workers=self.workers)
            else:
                # Workers are forks: whatever cyclic garbage the driver still
                # holds counts in each worker's resident set too, so it is
                # collected once here rather than inherited per worker.
                gc.collect()
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def close(self) -> None:
        """Shut the workers down; the pool cannot be used afterwards."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _discard_executor(self) -> None:
        """Drop a broken executor so the next round spawns fresh workers."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self.respawns += 1

    # -- execution ----------------------------------------------------------
    def map(self, fn: Callable, tasks: Sequence) -> list:
        """Apply ``fn`` (picklable) to every task on the pool's workers,
        order preserved; tasks must be idempotent and self-contained."""
        executor = self._ensure_executor()
        if executor is None:
            return [fn(task) for task in tasks]
        if self.backend != "process":
            return list(executor.map(fn, tasks))
        return self._map_process(fn, list(tasks))

    def _map_process(self, fn: Callable, tasks: list) -> list:
        """Per-task submission with respawn + targeted resubmission."""
        results: list = [None] * len(tasks)
        pending = list(range(len(tasks)))
        for round_index in range(self.task_retries + 1):
            executor = self._ensure_executor()
            assert executor is not None
            futures = {index: executor.submit(fn, tasks[index])
                       for index in pending}
            lost: list[int] = []
            try:
                for index, future in futures.items():
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool:
                        lost.append(index)
            finally:
                for future in futures.values():
                    future.cancel()
            if not lost:
                return results
            # A worker died mid-scatter.  Completed chunks keep their
            # results; only the lost ones go back out, on a fresh pool.
            self._discard_executor()
            if round_index >= self.task_retries:
                break
            self._count_chunk_retries(len(lost))
            pending = lost
        raise ServiceUnavailable(
            f"worker pool lost {len(pending)} chunk task(s) even after "
            f"{self.task_retries} respawn round(s)", retry_after_seconds=1.0)

    @staticmethod
    def _count_chunk_retries(amount: int) -> None:
        from repro.telemetry import metrics as _metrics

        _metrics.get_registry().counter(
            "repro_chunk_retries_total",
            "Scatter chunk tasks resubmitted after a worker crash broke "
            "the process pool.").inc(amount)


@dataclass(frozen=True)
class TableShard:
    """One C1-style shard: a contiguous slice of the encrypted table.

    Record indices are *global* (positions in the unsharded table) so that
    distance ties across shards break by insertion order, exactly like the
    plaintext oracle and the single-server protocols.
    """

    shard_id: int
    start: int
    records: tuple[EncryptedRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


class ShardedCloud(SkNNProtocol):
    """The encrypted table partitioned across N C1 shards, queried in batches.

    A scatter-gather SkNN_b plan: every shard's record scan runs on a shared
    :class:`PersistentWorkerPool`, and a batch of queries shares a single
    scan pass — each worker task carries one contiguous *chunk* of a shard's
    records and *all* queries of the batch (see :func:`ssed_chunk_worker`).
    Validation, the delivery phase and the instrumented runner are the ones
    every :class:`~repro.core.sknn_base.SkNNProtocol` has; a report's
    ``phase_seconds`` names the ledger's phases as the plan does
    (:attr:`PHASE_NAMES`).  Its crypto-operation counts are the driver's:
    the per-record Paillier operations happen inside the chunk workers,
    whose key objects (and counters) are their own.

    Args:
        cloud: the federated cloud already hosting ``Epk(T)`` (its C1 plays
            the role of the shard coordinator; its C2 is the key holder).
        shards: number of partitions (each at least one record).
        workers: worker count for the shared persistent pool.
        backend: pool backend (``"process"``, ``"thread"`` or ``"serial"``).
        pool: optionally share an existing pool instead of owning one; then
            ``workers``/``backend`` are the pool's and :meth:`close` leaves
            it running.
        precompute: optional :class:`~repro.crypto.precompute.
            PrecomputeEngine`, C1's one engine: it is attached to the cloud
            (the delivery phase's mask encryptions draw on it) and every
            chunk task ships a slice drained from it, so worker-side
            encryptions run powmod-free while warm.  Refill it off the hot
            path with :meth:`refill_precompute` (the serving layer does this
            in idle scheduler slots).
    """

    name = "SkNNb-sharded"

    #: the plan's names for the scan, selection and delivery phases
    PHASE_NAMES = {"scan": "distance", "select": "merge",
                   "deliver": "deliver"}

    def __init__(self, cloud: FederatedCloud, shards: int = 2,
                 workers: int = 4, backend: Backend = "process",
                 pool: PersistentWorkerPool | None = None,
                 precompute: "PrecomputeEngine | None" = None) -> None:
        super().__init__(cloud)
        table = self.encrypted_table
        if shards < 1:
            raise ConfigurationError("shard count must be >= 1")
        if shards > len(table):
            raise ConfigurationError(
                f"cannot split {len(table)} records into {shards} shards")
        if pool is not None:
            self.pool = pool
            self._owns_pool = False
        else:
            self.pool = PersistentWorkerPool(workers=workers, backend=backend)
            self._owns_pool = True
        self.shards = tuple(
            TableShard(shard_id, start, tuple(table.records[start:stop]))
            for shard_id, (start, stop)
            in enumerate(shard_bounds(len(table), shards)))
        self.precompute = precompute
        if precompute is not None:
            if cloud.engine is not precompute:
                # Attach as C1's engine, preserving any C2 engine already
                # there.
                cloud.attach_engine(precompute, cloud.c2.engine)
            # Deployment-time prefill (off the query path by definition).
            self.refill_precompute()

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool (no-op for a shared pool)."""
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "ShardedCloud":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- precomputation (off the query critical path) ------------------------
    def refill_precompute(self, budget: int | None = None) -> int:
        """Top up the engine; returns the factors precomputed.

        Meant to run between queries (the serving layer calls it from idle
        scheduler slots).
        """
        if self.precompute is None:
            return 0
        return self.precompute.refill(budget)

    # -- what the serving layer reads of its store ---------------------------
    @property
    def dimensions(self) -> int:
        """Attribute count of the hosted encrypted table."""
        return self.encrypted_table.dimensions

    def validate_query(self, encrypted_query: Sequence[Ciphertext],
                       k: int) -> None:
        """Validate query arity and ``k`` against the hosted table.

        Raises :class:`~repro.exceptions.QueryError` on malformed input; used
        by the serving layer to reject bad queries at submission time, before
        they can poison a batch.
        """
        self._validate_query(encrypted_query, k)

    # -- introspection ------------------------------------------------------
    # -- scatter-gather query plan ------------------------------------------
    def _build_tasks(
        self, encrypted_queries: Sequence[Sequence[Ciphertext]]
    ) -> list[ChunkWorkerTask]:
        """One task per record chunk, each carrying every query of the batch.

        Chunks never cross shard boundaries (each shard is an independent
        C1-role server), and every task ships its whole record slice through
        one SSED round per query — see :func:`ssed_chunk_worker`.
        """
        c1 = self.cloud.c1
        private_key = self.cloud.c2.private_key
        n = self.public_key.n
        backend_name = get_backend().name
        query_values = [[cipher.value for cipher in query]
                        for query in encrypted_queries]
        dimensions = len(query_values[0]) if query_values else 0
        schema = self.encrypted_table.schema
        attribute_bits = schema.attribute_bit_length()
        slot_width = distance_width(
            self.public_key.key_size, schema.distance_bit_length(dimensions))
        ssed_slots, _ = packing_slots(self.public_key.key_size, schema)
        records = self.encrypted_table.records
        tasks: list[ChunkWorkerTask] = []
        for start, stop in scan_tasks(len(records), len(self.shards),
                                      self.pool.workers):
            seed = c1.rng.getrandbits(63)
            # The chunk worker encrypts, per query, one mask per pack and
            # one square sum per record — drain that many factors from the
            # engine (whatever is available) so the worker's encryptions
            # are multiplications while warm.
            pool_slice = None
            if self.precompute is not None:
                wanted = ((sum(scan_packs(stop - start, dimensions,
                                          ssed_slots))
                           + stop - start) * len(query_values))
                pool_slice = self.precompute.take_available(wanted) or None
            tasks.append((
                start,
                [[cipher.value for cipher in record.ciphertexts]
                 for record in records[start:stop]],
                query_values,
                n,
                private_key.p,
                private_key.q,
                seed,
                backend_name,
                pool_slice,
                attribute_bits,
                slot_width,
            ))
        return tasks

    def scatter_distances(
        self, encrypted_queries: Sequence[Sequence[Ciphertext]],
    ) -> list[list[int]]:
        """Distance phase for a whole batch in one scan pass over all shards.

        The chunk tasks are built exactly once — each carries its own RNG
        seed drawn from C1's stream — and the *same* task list is what the
        pool resubmits if a worker dies mid-scatter, so a retried chunk
        reproduces bit-identical distances (see
        :meth:`PersistentWorkerPool.map`).

        Returns ``distances[query][global_record_index]`` — the plaintext
        squared distances SkNN_b reveals to the C2 role.
        """
        n_records = len(self.encrypted_table)
        with _profiling.cost_scope("scan"), \
                _tracing.span(f"{self.name}.distance_scan",
                              records=n_records):
            tasks = self._build_tasks(encrypted_queries)
            results = self.pool.map(ssed_chunk_worker, tasks)
            distances = [[0] * n_records for _ in encrypted_queries]
            for start_index, chunk_distances in results:
                for offset, per_query in enumerate(chunk_distances):
                    for query_index, distance in enumerate(per_query):
                        distances[query_index][start_index + offset] = distance
        return distances

    # -- answering ----------------------------------------------------------
    def answer_batch(self, encrypted_queries: Sequence[Sequence[Ciphertext]],
                     ks: Sequence[int]) -> list[ResultShares]:
        """Answer a batch of queries sharing one scan pass over the shards.

        Args:
            encrypted_queries: one attribute-wise encrypted query per entry.
            ks: the requested ``k`` for each query (same length as the batch).

        Returns:
            One :class:`~repro.core.roles.ResultShares` per query, in order.
        """
        if len(encrypted_queries) != len(ks):
            raise ConfigurationError("batch queries and ks differ in length")
        if not encrypted_queries:
            return []
        for query, k in zip(encrypted_queries, ks):
            self._validate_query(query, k)

        distances = self.scatter_distances(encrypted_queries)
        # Gather: the distances of every slice already sit in this process,
        # so the global selection is one top_k per query.
        with _profiling.cost_scope("select"):
            winners = [
                top_k(((distance, index)
                       for index, distance in enumerate(query_distances)), k)
                for query_distances, k in zip(distances, ks)
            ]
        table = self.encrypted_table
        return [
            self._deliver_records(
                [list(table.record_at(index).ciphertexts)
                 for _, index in per_query])
            for per_query in winners
        ]

    # -- single-query protocol interface -------------------------------------
    def run(self, encrypted_query: Sequence[Ciphertext], k: int) -> ResultShares:
        """Answer one query (a batch of size one)."""
        return self.answer_batch([encrypted_query], [k])[0]


class ParallelSkNNBasic(ShardedCloud):
    """SkNN_b with a parallelized distance phase (Figure 3 reproduction).

    The one-shard configuration of the scan plan: the whole table is a single
    slice cut into ``workers * 4`` chunks, and a query is a batch of one.
    The defaults are the paper's (6 threads to match its 6-core machine).
    """

    name = "SkNNb-parallel"

    def __init__(self, cloud: FederatedCloud, workers: int = 6,
                 backend: Backend = "process",
                 pool: PersistentWorkerPool | None = None,
                 precompute: "PrecomputeEngine | None" = None) -> None:
        super().__init__(cloud, shards=1, workers=workers, backend=backend,
                         pool=pool, precompute=precompute)
