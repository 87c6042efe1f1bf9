"""Sharded encrypted store: N C1-style shards queried scatter-gather style.

The paper's C1 hosts the whole encrypted table ``Epk(T)`` and its per-record
distance work is embarrassingly parallel (Section 5.3).  A serving deployment
takes the natural next step: partition the table across ``N`` shard servers,
run the SkNN_b distance phase on every shard concurrently, have each shard
return only its local top-k candidates, and merge the per-shard candidates
into the global top-k — a scatter-gather query plan over C1 replicas, as in
the related multi-server spatial-query systems (one Flask ``server_i`` per
partition).

Trust model: every shard is a C1-role party — it sees only ciphertexts plus
the plaintext distances that SkNN_b already reveals by design, so splitting
C1 into shards does not change the protocol's leakage profile.  The single C2
(key holder) and the delivery phase are unchanged.

:class:`ShardedCloud` keeps the shards inside one process and executes their
record scans on a shared :class:`~repro.core.parallel.PersistentWorkerPool`
(created once, reused across queries).  Batches of queries share a single
scan pass: each worker task carries one contiguous *chunk* of a shard's
records and *all* queries of the batch, and the whole chunk runs through one
vectorized crypto-kernel call — record serialization, key-object
reconstruction, obfuscator precomputation and batched CRT decryption are all
amortized across the chunk (see
:func:`~repro.core.parallel.ssed_chunk_worker`).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.cloud import FederatedCloud
from repro.core.parallel import (
    ChunkWorkerTask,
    PersistentWorkerPool,
    chunk_records,
    ssed_chunk_worker,
)
from repro.core.roles import ResultShares
from repro.core.sknn_base import RunStatsRecorder, SkNNRunReport
from repro.core.sknn_basic import SkNNBasic
from repro.crypto.paillier import Ciphertext
from repro.crypto.precompute import PrecomputeEngine
from repro.crypto.randomness_pool import RandomnessPool
from repro.db.encrypted_table import EncryptedRecord
from repro.exceptions import ConfigurationError
from repro.resilience.policy import Deadline

__all__ = ["TableShard", "ShardCandidate", "BatchPhaseTimings", "ShardedCloud"]


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

    def global_indices(self) -> range:
        """The global record indices this shard covers."""
        return range(self.start, self.start + len(self.records))


@dataclass(frozen=True)
class ShardCandidate:
    """One top-k candidate produced by a shard's local scan."""

    distance: int
    global_index: int
    shard_id: int


@dataclass
class BatchPhaseTimings:
    """Wall-clock breakdown of one batched scatter-gather execution."""

    queries: int
    shards: int
    records: int
    distance_seconds: float = 0.0
    merge_seconds: float = 0.0
    deliver_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total batch time across the three phases."""
        return self.distance_seconds + self.merge_seconds + self.deliver_seconds


class ShardedCloud:
    """The encrypted table partitioned across N C1 shards, queried in batches.

    Args:
        cloud: the federated cloud already hosting ``Epk(T)`` (its C1 plays
            the role of the shard coordinator; its C2 is the key holder).
        shards: number of partitions (each at least one record).
        workers: worker count for the shared persistent pool.
        backend: pool backend (``"process"``, ``"thread"`` or ``"serial"``).
        pool: optionally share an existing pool instead of owning one.
        randomness_pool: optional precomputed Paillier randomness; when given,
            the delivery-phase mask encryptions become cheap multiplications.
        precompute: optional :class:`~repro.crypto.precompute.
            PrecomputeEngine`; when given it is attached to the cloud (the
            delivery phase consumes its mask tuples), one per-shard
            obfuscator pool is derived from it, and every chunk task ships a
            slice of its shard's pool so worker-side encryptions run
            powmod-free while warm.  Refill the pools off the hot path with
            :meth:`refill_precompute` (the serving layer does this in idle
            scheduler slots).
    """

    def __init__(self, cloud: FederatedCloud, shards: int = 2,
                 workers: int = 4, backend: str = "process",
                 pool: PersistentWorkerPool | None = None,
                 randomness_pool: RandomnessPool | None = None,
                 precompute: PrecomputeEngine | None = None) -> None:
        table = cloud.c1.encrypted_table
        if shards < 1:
            raise ConfigurationError("shard count must be >= 1")
        if shards > len(table):
            raise ConfigurationError(
                f"cannot split {len(table)} records into {shards} shards")
        self.cloud = cloud
        if pool is not None:
            self.pool = pool
            self._owns_pool = False
        else:
            self.pool = PersistentWorkerPool(workers=workers, backend=backend)
            self._owns_pool = True
        self.randomness_pool = randomness_pool
        self.shards = self._partition(table.records, shards)
        self.precompute = precompute
        if precompute is not None and cloud.engine is not precompute:
            # Attach as C1's engine, preserving any C2 engine already there.
            cloud.attach_engine(precompute, cloud.c2.engine)
        # One obfuscator pool per shard, drained into the chunk tasks of
        # that shard (the workers' pool slices) and refilled from idle time.
        # Sized so one full refill covers one query batch: the chunk worker
        # encrypts one mask per (record, attribute) pair and one square sum
        # per record.
        # (The chunk worker plays both cloud roles by construction — see
        # repro.core.parallel — so a single slice feeds both encryptions.)
        self.shard_pools: tuple[RandomnessPool, ...] = tuple(
            RandomnessPool(cloud.c1.public_key,
                           size=max(len(shard) * (table.dimensions + 1), 1),
                           rng=precompute.rng, precompute=False)
            for shard in self.shards
        ) if precompute is not None else ()
        # The delivery phase (masking + two-share hand-off) is exactly
        # Algorithm 5 steps 4-6; reuse the serial protocol's implementation.
        self._delivery = SkNNBasic(cloud)
        if randomness_pool is not None and precompute is None:
            self._delivery.mask_encryptor = randomness_pool.encrypt
        self.last_batch_timings: BatchPhaseTimings | None = None
        self.last_report: SkNNRunReport | None = None
        if precompute is not None:
            # Deployment-time prefill (off the query path by definition).
            self.refill_precompute()

    @staticmethod
    def _partition(records: Sequence[EncryptedRecord],
                   shards: int) -> tuple[TableShard, ...]:
        """Split the records into ``shards`` near-equal contiguous slices."""
        base, extra = divmod(len(records), shards)
        result = []
        start = 0
        for shard_id in range(shards):
            size = base + (1 if shard_id < extra else 0)
            result.append(TableShard(shard_id, start,
                                     tuple(records[start:start + size])))
            start += size
        return tuple(result)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool (no-op for a shared pool)."""
        if self.precompute is not None:
            self.precompute.stop_producer()
        if self._owns_pool:
            self.pool.close()

    # -- precomputation (off the query critical path) ------------------------
    def refill_precompute(self, budget: int | None = None) -> int:
        """Top up the engine and per-shard pools; returns items precomputed.

        Meant to run between queries (the serving layer calls it from idle
        scheduler slots).  The budget is split between the engine's typed
        pools and the per-shard obfuscator pools that feed worker slices.
        """
        if self.precompute is None:
            return 0
        produced = self.precompute.refill(budget)
        for shard_pool in self.shard_pools:
            deficit = shard_pool.size - shard_pool.remaining
            if budget is not None:
                deficit = min(deficit, max(budget - produced, 0))
            if deficit > 0:
                produced += shard_pool.refill(deficit)
        return produced

    def __enter__(self) -> "ShardedCloud":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the query-store contract (shared with transport.client.RemoteStore) --
    #: protocol label stamped on reports produced through this store
    protocol_label = "SkNNb-sharded"

    @property
    def public_key(self):
        """The deployment's Paillier public key."""
        return self.cloud.c1.public_key

    @property
    def table_size(self) -> int:
        """Number of records in the hosted encrypted table."""
        return len(self.cloud.c1.encrypted_table)

    @property
    def dimensions(self) -> int:
        """Attribute count of the hosted encrypted table."""
        return self.cloud.c1.encrypted_table.dimensions

    def start_recorder(self) -> RunStatsRecorder:
        """Snapshot counters/traffic ahead of one batch execution."""
        return RunStatsRecorder(self.cloud)

    # -- introspection ------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of shards the table is partitioned into."""
        return len(self.shards)

    @property
    def shard_sizes(self) -> list[int]:
        """Record count of every shard, in shard order."""
        return [len(shard) for shard in self.shards]

    def validate_query(self, encrypted_query: Sequence[Ciphertext],
                       k: int) -> None:
        """Validate query arity and ``k`` against the hosted table.

        Raises :class:`~repro.exceptions.QueryError` on malformed input; used
        by the serving layer to reject bad queries at submission time, before
        they can poison a batch.
        """
        self._delivery._validate_query(encrypted_query, k)

    # -- scatter-gather query plan ------------------------------------------
    def _build_batch_tasks(
        self, encrypted_queries: Sequence[Sequence[Ciphertext]]
    ) -> list[ChunkWorkerTask]:
        """One task per record chunk, each carrying every query of the batch.

        Chunks never cross shard boundaries (each shard is an independent
        C1-role server), and every task ships its whole record slice through
        one vectorized kernel call — see
        :func:`~repro.core.parallel.ssed_chunk_worker`.
        """
        from repro.crypto.backend import get_backend

        c1 = self.cloud.c1
        private_key = self.cloud.c2.private_key
        n = c1.public_key.n
        backend_name = get_backend().name
        query_values = [[cipher.value for cipher in query]
                        for query in encrypted_queries]
        workers_per_shard = max(1, self.pool.workers // len(self.shards))
        dimensions = len(encrypted_queries[0]) if encrypted_queries else 0
        tasks: list[ChunkWorkerTask] = []
        for shard in self.shards:
            shard_pool = (self.shard_pools[shard.shard_id]
                          if self.shard_pools else None)
            for start, stop in chunk_records(len(shard.records),
                                             workers_per_shard):
                seed = c1.rng.getrandbits(63)
                # The chunk worker encrypts one mask per (record, attribute,
                # query) and one square sum per (record, query) — drain that
                # many factors from the shard's pool (whatever is available)
                # so the worker's encryptions are multiplications while warm.
                pool_slice = None
                if shard_pool is not None:
                    wanted = (stop - start) * (dimensions + 1) * len(
                        encrypted_queries)
                    pool_slice = shard_pool.take_available(wanted) or None
                tasks.append((
                    shard.start + start,
                    [[cipher.value for cipher in record.ciphertexts]
                     for record in shard.records[start:stop]],
                    query_values,
                    n,
                    private_key.p,
                    private_key.q,
                    seed,
                    backend_name,
                    pool_slice,
                ))
        return tasks

    def scatter_distances(
        self, encrypted_queries: Sequence[Sequence[Ciphertext]],
        deadline: Deadline | None = None,
    ) -> list[list[int]]:
        """Distance phase for a whole batch in one scan pass over all shards.

        The chunk tasks are built exactly once — each carries its own RNG
        seed drawn from C1's stream — and the *same* task list is what the
        pool resubmits if a worker dies mid-scatter, so a retried chunk
        reproduces bit-identical distances (see
        :meth:`~repro.core.parallel.PersistentWorkerPool.map`).  ``deadline``
        bounds the scatter including any respawn rounds.

        Returns ``distances[query][global_record_index]`` — the plaintext
        squared distances SkNN_b reveals to the C2 role.
        """
        tasks = self._build_batch_tasks(encrypted_queries)
        results = self.pool.map(ssed_chunk_worker, tasks, deadline=deadline)
        n_records = len(self.cloud.c1.encrypted_table)
        distances = [[0] * n_records for _ in encrypted_queries]
        for start_index, chunk_distances in results:
            for offset, per_query in enumerate(chunk_distances):
                for query_index, distance in enumerate(per_query):
                    distances[query_index][start_index + offset] = distance
        return distances

    def shard_top_k(self, distances: Sequence[int], k: int) -> list[list[ShardCandidate]]:
        """Each shard's local top-k candidates for one query's distances."""
        candidates: list[list[ShardCandidate]] = []
        for shard in self.shards:
            local = [
                ShardCandidate(distances[index], index, shard.shard_id)
                for index in shard.global_indices()
            ]
            best = heapq.nsmallest(min(k, len(local)), local,
                                   key=lambda c: (c.distance, c.global_index))
            candidates.append(best)
        return candidates

    @staticmethod
    def merge_top_k(per_shard: Sequence[Sequence[ShardCandidate]],
                    k: int) -> list[ShardCandidate]:
        """Gather step: merge per-shard candidates into the global top-k.

        Ties break by global record index (insertion order), matching the
        plaintext :class:`~repro.db.knn.LinearScanKNN` oracle even when the
        tied records live on different shards.
        """
        gathered = [candidate for shard in per_shard for candidate in shard]
        return heapq.nsmallest(k, gathered,
                               key=lambda c: (c.distance, c.global_index))

    # -- answering ----------------------------------------------------------
    def answer_batch(self, encrypted_queries: Sequence[Sequence[Ciphertext]],
                     ks: Sequence[int],
                     deadline: Deadline | None = None) -> list[ResultShares]:
        """Answer a batch of queries sharing one scan pass over the shards.

        Args:
            encrypted_queries: one attribute-wise encrypted query per entry.
            ks: the requested ``k`` for each query (same length as the batch).
            deadline: optional request deadline bounding the scatter phase,
                including any worker-crash respawn rounds.

        Returns:
            One :class:`~repro.core.roles.ResultShares` per query, in order.
        """
        if len(encrypted_queries) != len(ks):
            raise ConfigurationError("batch queries and ks differ in length")
        if not encrypted_queries:
            return []
        for query, k in zip(encrypted_queries, ks):
            self.validate_query(query, k)

        started = time.perf_counter()
        distances = self.scatter_distances(encrypted_queries,
                                           deadline=deadline)
        distance_elapsed = time.perf_counter() - started

        merge_started = time.perf_counter()
        winners = [
            self.merge_top_k(self.shard_top_k(query_distances, k), k)
            for query_distances, k in zip(distances, ks)
        ]
        merge_elapsed = time.perf_counter() - merge_started

        deliver_started = time.perf_counter()
        table = self.cloud.c1.encrypted_table
        all_shares = []
        for per_query in winners:
            selected = [list(table.record_at(c.global_index).ciphertexts)
                        for c in per_query]
            all_shares.append(self._delivery._deliver_records(selected))
        deliver_elapsed = time.perf_counter() - deliver_started

        self.last_batch_timings = BatchPhaseTimings(
            queries=len(encrypted_queries),
            shards=self.shard_count,
            records=len(table),
            distance_seconds=distance_elapsed,
            merge_seconds=merge_elapsed,
            deliver_seconds=deliver_elapsed,
        )
        return all_shares

    # -- single-query protocol interface (SkNNSystem mode="sharded") --------
    def run(self, encrypted_query: Sequence[Ciphertext], k: int) -> ResultShares:
        """Answer one query (a batch of size one)."""
        return self.answer_batch([encrypted_query], [k])[0]

    def run_with_report(self, encrypted_query: Sequence[Ciphertext], k: int,
                        distance_bits: int | None = None) -> ResultShares:
        """Answer one query and record a populated run report."""
        recorder = RunStatsRecorder(self.cloud)
        started = time.perf_counter()

        shares = self.run(encrypted_query, k)

        elapsed = time.perf_counter() - started
        timings = self.last_batch_timings
        stats = recorder.finish("SkNNb-sharded", elapsed)
        table = self.cloud.c1.encrypted_table
        self.last_report = SkNNRunReport(
            protocol="SkNNb-sharded",
            n_records=len(table),
            dimensions=table.dimensions,
            k=k,
            key_size=self.cloud.c1.public_key.key_size,
            distance_bits=distance_bits,
            wall_time_seconds=elapsed,
            stats=stats,
            phase_seconds={
                "distance": timings.distance_seconds,
                "merge": timings.merge_seconds,
                "deliver": timings.deliver_seconds,
            } if timings is not None else {},
        )
        return shares
