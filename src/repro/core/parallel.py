"""Parallel execution of SkNN_b — Section 5.3 / Figure 3 of the paper.

The paper observes that "the computations involved on each data record are
independent of others", parallelizes the per-record work of SkNN_b with OpenMP
over the 6 cores of its test machine, and measures a ~6x speedup (Figure 3).

This module reproduces that experiment.  The unit of parallel work is the
paper's — *a record's SSED computation* — shipped a contiguous chunk of
records at a time: the homomorphic differences, the fused masked-squaring
round of :mod:`repro.protocols.ssed` (one mask per attribute, squares summed
in the clear, one re-encryption per record) and the final decryption of the
distance (which SkNN_b reveals to C2 by design).  Each worker plays both
cloud roles for its records — the values it sees are the same masked values
the two clouds see in the serial protocol, so the leakage profile is
unchanged — and returns the plaintext distances, after which the driver
performs the cheap top-k selection and the standard two-share result delivery.

Backends:

* ``"process"`` — :class:`concurrent.futures.ProcessPoolExecutor`; true
  parallelism across cores, the analogue of the paper's OpenMP loop.
* ``"thread"``  — :class:`concurrent.futures.ThreadPoolExecutor`; CPython's
  GIL serializes big-integer arithmetic, so this shows little speedup and is
  included to make that limitation measurable.
* ``"serial"``  — same code path without a pool (baseline for speedup plots).

Workers are hosted by a :class:`PersistentWorkerPool`, created lazily on the
first query and **reused across queries** — pool start-up (process spawning)
is paid once per deployment instead of once per query, which matters for the
multi-query serving layer in :mod:`repro.service`.  Call
:meth:`ParallelSkNNBasic.close` (or use the instance as a context manager)
to release the workers.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from random import Random
from typing import Callable, Literal, Sequence

from repro.core.cloud import FederatedCloud
from repro.core.roles import ResultShares
from repro.core.sknn_base import SkNNProtocol
from repro.crypto.paillier import Ciphertext, PaillierPrivateKey, PaillierPublicKey
from repro.exceptions import ConfigurationError, DeadlineExceeded, ServiceUnavailable

__all__ = [
    "ParallelSkNNBasic",
    "ParallelRunReport",
    "PersistentWorkerPool",
    "ssed_chunk_worker",
    "chunk_records",
]

Backend = Literal["thread", "process", "serial"]

#: Chunked worker task: (chunk start index, several records' ciphertext ints,
#: several queries' ciphertext ints, modulus N, prime p, prime q, RNG seed,
#: bigint backend name[, pool slice]).  One task ships a whole contiguous
#: slice of the table through the vectorized crypto kernel — key
#: reconstruction, obfuscator-table reuse and batched CRT decryption are
#: amortized over every (record, query) pair of the chunk.  The backend name
#: travels with the task because spawned worker processes do not inherit a
#: programmatically selected backend (e.g. the CLI's ``--crypto-backend``).
#: The optional ninth element is a *pool slice*: single-use precomputed
#: ``r^N`` obfuscation factors drained from the driver's per-shard
#: precomputation pools, so the worker's mask and square-sum encryptions are
#: hot-path multiplications while its per-process key cache stays warm.  Eight-element
#: tasks (no slice) remain valid.
ChunkWorkerTask = tuple[
    int, list[list[int]], list[list[int]], int, int, int, int, str,
    "list[int] | None"]


@dataclass
class ParallelRunReport:
    """Timing breakdown of one parallel SkNN_b execution."""

    backend: str
    workers: int
    n_records: int
    distance_phase_seconds: float
    selection_phase_seconds: float
    total_seconds: float


#: Per-process cache of reconstructed key objects, keyed by the modulus.
#: Worker processes persist across queries (PersistentWorkerPool), so the
#: keys — and with them the public key's fixed-base obfuscator table — are
#: rebuilt once per process lifetime instead of once per task.  Bounded:
#: the serial/thread backends run workers in the driver process, where an
#: unbounded cache would pin one ~2 MB comb table per key rotation forever.
#: Locked: the thread backend runs workers concurrently in one process.
_WORKER_KEYS: dict[int, tuple[PaillierPublicKey, PaillierPrivateKey]] = {}
_WORKER_KEYS_MAX = 4
_WORKER_KEYS_LOCK = threading.Lock()


def _worker_keys(n: int, p: int, q: int
                 ) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Reconstruct (or fetch the cached) key objects for a worker process."""
    with _WORKER_KEYS_LOCK:
        cached = _WORKER_KEYS.get(n)
        if cached is None:
            public_key = PaillierPublicKey(n)
            private_key = PaillierPrivateKey(public_key, p, q)
            cached = (public_key, private_key)
            while len(_WORKER_KEYS) >= _WORKER_KEYS_MAX:
                _WORKER_KEYS.pop(next(iter(_WORKER_KEYS)))
            _WORKER_KEYS[n] = cached
    return cached


def _chunk_squared_distances(public_key: PaillierPublicKey,
                             private_key: PaillierPrivateKey, rng: Random,
                             records: list[list[int]],
                             queries: list[list[int]],
                             pool=None) -> list[list[int]]:
    """Squared distances of every (record, query) pair, vectorized.

    Follows the fused SSED round of :meth:`~repro.protocols.ssed.
    SecureSquaredEuclideanDistance.run_many` operation for operation —
    homomorphic difference, one additive mask per (record, attribute),
    decryption of the masked differences, squares **summed per record in the
    clear**, one re-encryption per record, and stripping of the cross terms —
    so measured speedups reflect genuine parallelization of the protocol's
    workload.  Chunk-level batching effects:

    * the query-side negation ``E(-q_j)`` is computed once per (chunk, query)
      instead of once per (record, query) — a modular inversion replacing
      ``len(records)`` full exponentiations, valid since the squared
      difference is sign-invariant;
    * mask and square-sum encryptions draw obfuscators from the shipped pool
      slice, then the key's fixed-base window table (built once per worker
      process);
    * all decryptions run through the vectorized CRT kernel.

    Returns:
        ``distances[record][query]`` for the chunk, in input order.
    """
    from repro.crypto.backend import get_backend

    backend = get_backend()
    mulmod, invert, powmod = backend.mulmod, backend.invert, backend.powmod
    n = public_key.n
    nsquare = public_key.nsquare
    dimensions = len(queries[0]) if queries else 0
    out: list[list[int]] = [[0] * len(queries) for _ in records]

    for query_index, query_values in enumerate(queries):
        neg_query = [invert(value, nsquare) for value in query_values]

        # E(t_ij - q_j) for every record and attribute (flattened) — the
        # modular inverse E(q_j)**-1 is an encryption of -q_j.
        diffs = [
            mulmod(record_values[j], neg_query[j], nsquare)
            for record_values in records
            for j in range(dimensions)
        ]

        # Additive masking with fresh randomness; obfuscators come from the
        # shipped pool slice while it lasts, then the windowed comb.
        masks = [rng.randrange(n) for _ in diffs]
        enc_masks = public_key.encrypt_batch(masks, rng=rng, pool=pool)
        masked = [mulmod(diff, enc_mask.value, nsquare)
                  for diff, enc_mask in zip(diffs, enc_masks)]

        # Decrypt the masked differences, square and sum per record in the
        # clear, re-encrypt one sum per record.
        masked_plain = private_key._raw_decrypt_batch(masked)
        enc_sums = public_key.encrypt_batch(
            [sum(h * h for h in masked_plain[base:base + dimensions]) % n
             for base in range(0, len(masked_plain), dimensions)],
            rng=rng, pool=pool)

        # Strip: E(sum (d+r)^2) * prod E(d)^(N-2r) * E(-sum r^2) per record.
        totals: list[Ciphertext] = []
        for record_index, enc_sum in enumerate(enc_sums):
            base = record_index * dimensions
            total = enc_sum.value
            mask_squares = 0
            for index in range(base, base + dimensions):
                mask = masks[index]
                total = mulmod(
                    total, powmod(diffs[index], (n - 2 * mask) % n, nsquare),
                    nsquare)
                mask_squares += mask * mask
            constant = (1 + (-mask_squares % n) * n) % nsquare
            totals.append(
                Ciphertext(public_key, mulmod(total, constant, nsquare)))

        for record_index, distance in enumerate(
                private_key.decrypt_residue_batch(totals)):
            out[record_index][query_index] = distance
    return out


def ssed_chunk_worker(task: ChunkWorkerTask) -> tuple[int, list[list[int]]]:
    """Vectorized distance computation for one chunk of contiguous records.

    The unit of parallel work of the sharded/parallel scan paths: one task
    carries a slice of the table plus every query of the batch, and the whole
    slice runs through :func:`_chunk_squared_distances` as a single
    vectorized kernel call.  The worker aligns its process-wide bigint
    backend with the driver's (carried in the task) before computing.

    Returns:
        ``(chunk_start_index, distances[record][query])``.
    """
    from repro.crypto.backend import get_backend, set_backend
    from repro.crypto.randomness_pool import RandomnessPool

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

    start_index, record_rows, queries, n, p, q, seed, backend_name = task[:8]
    pool_slice = task[8] if len(task) > 8 else None
    if get_backend().name != backend_name:
        set_backend(backend_name)
    public_key, private_key = _worker_keys(n, p, q)
    pool = (RandomnessPool.from_factors(public_key, list(pool_slice))
            if pool_slice else None)
    rng = Random(seed)
    return start_index, _chunk_squared_distances(public_key, private_key, rng,
                                                 record_rows, queries,
                                                 pool=pool)


def chunk_records(count: int, workers: int,
                  tasks_per_worker: int = 4) -> list[tuple[int, int]]:
    """Split ``count`` records into contiguous ``(start, stop)`` chunks.

    Aims for ``workers * tasks_per_worker`` chunks so the pool keeps every
    worker busy while still amortizing per-task fixed costs over many
    records.
    """
    if count <= 0:
        return []
    target = max(workers, 1) * max(tasks_per_worker, 1)
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
    ``task_retries`` respawn rounds, bounded by the caller's deadline.
    Tasks must therefore be idempotent and self-contained (the SSED chunk
    tasks are: each carries its own RNG seed, so a resubmitted chunk
    reproduces bit-identical distances).  When retries are exhausted the
    pool raises the typed, retriable
    :class:`~repro.exceptions.ServiceUnavailable` so the serving layer can
    shed the query instead of returning partial results.

    Args:
        workers: number of parallel workers.
        backend: ``"process"``, ``"thread"`` or ``"serial"`` (no pool).
        task_retries: default respawn-and-resubmit rounds per :meth:`map`
            call on the process backend (``0`` disables recovery).
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
    def map(self, fn: Callable, tasks: Sequence,
            task_retries: int | None = None, deadline=None) -> list:
        """Apply ``fn`` to every task on the pool's workers (order preserved).

        Args:
            fn: picklable task function.
            tasks: idempotent, self-contained task tuples.
            task_retries: override the pool's respawn-round budget for this
                call (process backend only).
            deadline: optional :class:`~repro.resilience.policy.Deadline`
                bounding the whole map — including any respawn rounds; on
                expiry :class:`~repro.exceptions.DeadlineExceeded` is raised.
        """
        executor = self._ensure_executor()
        if executor is None:
            return [fn(task) for task in tasks]
        if self.backend != "process":
            return list(executor.map(fn, tasks))
        retries = self.task_retries if task_retries is None else task_retries
        return self._map_process(fn, list(tasks), retries, deadline)

    def _map_process(self, fn: Callable, tasks: list, task_retries: int,
                     deadline) -> list:
        """Per-task submission with respawn + targeted resubmission."""
        results: list = [None] * len(tasks)
        pending = list(range(len(tasks)))
        for round_index in range(task_retries + 1):
            executor = self._ensure_executor()
            assert executor is not None
            futures = {index: executor.submit(fn, tasks[index])
                       for index in pending}
            lost: list[int] = []
            try:
                for index, future in futures.items():
                    timeout = (None if deadline is None
                               else deadline.require(f"chunk task {index}"))
                    try:
                        results[index] = future.result(timeout=timeout)
                    except BrokenProcessPool:
                        lost.append(index)
                    except FuturesTimeoutError:
                        raise DeadlineExceeded(
                            f"chunk task {index} still running at the "
                            "request deadline") from None
            finally:
                for future in futures.values():
                    future.cancel()
            if not lost:
                return results
            # A worker died mid-scatter.  Completed chunks keep their
            # results; only the lost ones go back out, on a fresh pool.
            self._discard_executor()
            if round_index >= task_retries:
                break
            self._count_chunk_retries(len(lost))
            pending = lost
        raise ServiceUnavailable(
            f"worker pool lost {len(pending)} chunk task(s) even after "
            f"{task_retries} respawn round(s)", retry_after_seconds=1.0)

    @staticmethod
    def _count_chunk_retries(amount: int) -> None:
        from repro.telemetry import metrics as _metrics

        _metrics.get_registry().counter(
            "repro_chunk_retries_total",
            "Scatter chunk tasks resubmitted after a worker crash broke "
            "the process pool.").inc(amount)


class ParallelSkNNBasic(SkNNProtocol):
    """SkNN_b with a parallelized distance phase (Figure 3 reproduction)."""

    name = "SkNNb-parallel"

    def __init__(self, cloud: FederatedCloud, workers: int = 6,
                 backend: Backend = "process",
                 pool: PersistentWorkerPool | None = None,
                 precompute=None) -> None:
        """Create a parallel SkNN_b runner.

        Args:
            cloud: the federated cloud hosting the encrypted database.
            workers: number of parallel workers (the paper uses 6 threads to
                match its 6-core machine).
            backend: ``"process"`` (true parallelism), ``"thread"`` (GIL
                bound, for comparison) or ``"serial"`` (no pool; baseline).
            pool: optionally share an existing :class:`PersistentWorkerPool`
                (e.g. across the shards of a :class:`~repro.service.sharding.
                ShardedCloud`); when given, ``workers``/``backend`` are taken
                from the pool and :meth:`close` leaves it running.
            precompute: optional :class:`~repro.crypto.precompute.
                PrecomputeEngine`; its obfuscator pool is drained into the
                chunk tasks (pool slices) so worker-side encryptions are
                multiplications, and the delivery phase uses its mask tuples.
        """
        super().__init__(cloud)
        if pool is not None:
            self.pool = pool
            self._owns_pool = False
        else:
            self.pool = PersistentWorkerPool(workers=workers, backend=backend)
            self._owns_pool = True
        self.precompute = precompute
        if precompute is not None and cloud.engine is not precompute:
            cloud.attach_engine(precompute, cloud.c2.engine)
        self.workers = self.pool.workers
        self.backend = self.pool.backend
        self.last_parallel_report: ParallelRunReport | None = None

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool (no-op for a shared pool)."""
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "ParallelSkNNBasic":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution -------------------------------------------------------------
    def run(self, encrypted_query: Sequence[Ciphertext], k: int) -> ResultShares:
        """Answer a kNN query with the distance phase parallelized."""
        self._validate_query(encrypted_query, k)

        started = time.perf_counter()
        distances = self._parallel_distances(encrypted_query)
        distance_elapsed = time.perf_counter() - started

        selection_started = time.perf_counter()
        shares = self._finish_query(distances, k)
        selection_elapsed = time.perf_counter() - selection_started

        self.last_parallel_report = ParallelRunReport(
            backend=self.backend,
            workers=self.workers,
            n_records=len(self.cloud.c1.encrypted_table),
            distance_phase_seconds=distance_elapsed,
            selection_phase_seconds=selection_elapsed,
            total_seconds=distance_elapsed + selection_elapsed,
        )
        return shares

    def run_with_report(self, encrypted_query: Sequence[Ciphertext], k: int,
                        distance_bits: int | None = None) -> ResultShares:
        """Run and record a populated :class:`~repro.core.sknn_base.SkNNRunReport`.

        In addition to the base-class statistics the report's
        ``phase_seconds`` carries the parallel distance/selection split.
        Note that crypto-operation counters only reflect driver-side work:
        the per-record Paillier operations happen inside worker processes
        whose counters are not shared with the driver.
        """
        shares = super().run_with_report(encrypted_query, k,
                                         distance_bits=distance_bits)
        parallel = self.last_parallel_report
        if self.last_report is not None and parallel is not None:
            self.last_report.phase_seconds = {
                "distance": parallel.distance_phase_seconds,
                "selection": parallel.selection_phase_seconds,
            }
        return shares

    # -- distance phase ------------------------------------------------------------
    def _parallel_distances(self, encrypted_query: Sequence[Ciphertext]) -> list[int]:
        """Compute every record's squared distance with the persistent pool."""
        tasks = self._build_tasks(encrypted_query)
        results = self.pool.map(ssed_chunk_worker, tasks)
        distances = [0] * len(self.cloud.c1.encrypted_table)
        for start_index, chunk_distances in results:
            for offset, per_query in enumerate(chunk_distances):
                distances[start_index + offset] = per_query[0]
        return distances

    def _build_tasks(self, encrypted_query: Sequence[Ciphertext]
                     ) -> list[ChunkWorkerTask]:
        """Chunk the table into vectorized work items for the worker pool.

        One task per contiguous chunk of records (a few chunks per worker),
        each carrying the whole chunk through one vectorized kernel call —
        see :func:`ssed_chunk_worker`.
        """
        from repro.crypto.backend import get_backend

        c1 = self.cloud.c1
        private_key = self.cloud.c2.private_key
        n = c1.public_key.n
        backend_name = get_backend().name
        query_values = [cipher.value for cipher in encrypted_query]
        records = c1.encrypted_table.records
        dimensions = len(query_values)
        tasks: list[ChunkWorkerTask] = []
        for start, stop in chunk_records(len(records), self.workers):
            seed = c1.rng.getrandbits(63)
            pool_slice = None
            if self.precompute is not None:
                # One mask encryption per (record, attribute) and one
                # square-sum encryption per record.
                wanted = (stop - start) * (dimensions + 1)
                pool_slice = (self.precompute.obfuscators
                              .take_available(wanted) or None)
            tasks.append((
                start,
                [[cipher.value for cipher in record.ciphertexts]
                 for record in records[start:stop]],
                [query_values],
                n,
                private_key.p,
                private_key.q,
                seed,
                backend_name,
                pool_slice,
            ))
        return tasks

    # -- selection + delivery ---------------------------------------------------------
    def _finish_query(self, plaintext_distances: list[int], k: int) -> ResultShares:
        """Top-k selection and two-share delivery (identical to SkNN_b)."""
        order = sorted(range(len(plaintext_distances)),
                       key=lambda idx: (plaintext_distances[idx], idx))
        top_k_indices = order[:k]
        table = self.cloud.c1.encrypted_table
        selected = [list(table.record_at(index).ciphertexts)
                    for index in top_k_indices]
        return self._deliver_records(selected)
