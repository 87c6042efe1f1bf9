"""Concurrent readers must always see consistent statistics snapshots.

Regression tests for the telemetry PR: ``ServerStats`` and
``PrecomputeEngine.stats()`` are polled by
live introspection (``transport.stats``, the metrics collectors, benchmark
emitters) while worker/producer threads mutate them.  Each snapshot must be
taken under the owning lock so no reader ever observes a torn view — a
batch's query count without its busy time, or hits that outrun the refills.
"""

from __future__ import annotations

import sys
import threading
from random import Random

from repro.crypto.paillier import OperationCounter, counting_scope
from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine
from repro.service.scheduler import ServerStats

QUERIES_PER_BATCH = 3
SECONDS_PER_BATCH = 0.25


def hammer(worker, reader, threads: int = 4) -> list:
    """Run ``worker`` in N threads while the main thread runs ``reader``."""
    stop = threading.Event()
    errors: list[BaseException] = []

    def guarded() -> None:
        try:
            while not stop.is_set():
                worker()
        except BaseException as exc:  # pragma: no cover - the regression
            errors.append(exc)
            stop.set()

    pool = [threading.Thread(target=guarded) for _ in range(threads)]
    for thread in pool:
        thread.start()
    try:
        observations = [reader() for _ in range(300)]
    finally:
        stop.set()
        for thread in pool:
            thread.join()
    assert not errors, errors
    return observations


class TestServerStats:
    def test_snapshot_is_internally_consistent_under_writers(self):
        stats = ServerStats()

        def worker():
            stats.record_batch(QUERIES_PER_BATCH, SECONDS_PER_BATCH)

        for snap in hammer(worker, stats.snapshot):
            # Every batch adds exactly (3 queries, 0.25s): any atomic
            # snapshot keeps those ratios; a torn one breaks them.
            assert snap["queries_served"] == \
                QUERIES_PER_BATCH * snap["batches_served"]
            assert abs(snap["busy_seconds"]
                       - SECONDS_PER_BATCH * snap["batches_served"]) < 1e-6
            if snap["batches_served"]:
                assert snap["mean_batch_size"] == QUERIES_PER_BATCH

    def test_record_batch_totals(self):
        stats = ServerStats()
        threads = [threading.Thread(
            target=lambda: [stats.record_batch(2, 0.5) for _ in range(50)])
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = stats.snapshot()
        assert snap["batches_served"] == 400
        assert snap["queries_served"] == 800
        assert abs(snap["busy_seconds"] - 200.0) < 1e-6


class TestPrecomputeEngine:
    def test_snapshot_under_concurrent_takers(self, public_key):
        engine = PrecomputeEngine(public_key, rng=Random(3),
                                  config=PrecomputeConfig(obfuscators=64))
        engine.warm()

        def worker():
            engine.take_available(1)

        for snap in hammer(worker, engine.stats):
            # hits never exceed what was precomputed, and the fields come
            # from one lock hold so they cannot contradict each other.
            assert snap["obfuscator_hits"] \
                + snap["remaining"]["obfuscators"] \
                == snap["offline_encryptions"] == 64

    def test_totals_after_join(self, public_key):
        engine = PrecomputeEngine(public_key, rng=Random(4),
                                  config=PrecomputeConfig(obfuscators=32))
        engine.warm()
        takes_per_thread = 40

        def worker():
            for _ in range(takes_per_thread):
                engine.take_available(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = engine.stats()
        assert (snap["obfuscator_hits"] + snap["obfuscator_misses"]
                == 4 * takes_per_thread)
        # everything precomputed was handed out
        assert snap["obfuscator_hits"] == 32

    def test_snapshot_under_concurrent_takers_and_refills(self, public_key):
        """The pool counters of a snapshot come from one lock hold, so they
        never contradict each other while takers and a producer run."""
        engine = PrecomputeEngine(
            public_key, rng=Random(5),
            config=PrecomputeConfig(obfuscators=24, refill_batch=4))
        engine.warm()

        def worker():
            public_key.encrypt_batch([1], pool=engine)
            public_key.encrypt_batch([2], pool=engine)
            engine.refill(budget=1)

        for snap in hammer(worker, engine.stats, threads=3):
            assert set(snap) >= {"remaining", "hits", "misses",
                                 "obfuscator_hits", "obfuscator_misses",
                                 "offline_encryptions"}
            assert snap["hits"] == {} and snap["misses"] == {}
            assert 0 <= snap["remaining"]["obfuscators"]
            # nothing is handed out that was not produced first
            assert snap["obfuscator_hits"] <= snap["offline_encryptions"]

    def test_pool_hit_total_matches_stats(self, public_key):
        engine = PrecomputeEngine(
            public_key, rng=Random(6),
            config=PrecomputeConfig(obfuscators=4))
        engine.warm()
        public_key.encrypt_batch([0] * 6, pool=engine)
        snap = engine.stats()
        assert snap["obfuscator_hits"] == 4
        assert engine.pool_hit_total() == snap["obfuscator_hits"]


class TestOperationCounter:
    def test_scoped_increments_are_exact_under_two_threads(self):
        """Two threads each raise a shared root counter 200,000 times, each
        inside a counting scope of its own, with the interpreter switching
        threads every microsecond: the root reads 400,000 and each scope
        exactly its own thread's 200,000 — no lost update, no increment
        teed into a scope twice or into the other thread's."""
        increments = 200_000
        root = OperationCounter()
        scopes = [OperationCounter(), OperationCounter()]
        start = threading.Barrier(len(scopes))

        def count(scope: OperationCounter) -> None:
            with counting_scope(scope):
                start.wait()
                for _ in range(increments):
                    root.add("encryptions", 1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=count, args=(scope,))
                       for scope in scopes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert root.encryptions == increments * len(scopes)
        assert [scope.encryptions for scope in scopes] \
            == [increments] * len(scopes)

    def test_an_increment_raises_every_parent_and_the_scope_once(self):
        """A DGK key's counter raises its Paillier key's counter too, and
        the thread's scope sees the increment once."""
        paillier = OperationCounter()
        dgk = OperationCounter(parent=paillier)
        scope = OperationCounter()
        with counting_scope(scope):
            dgk.add("decryptions", 3)
        assert (dgk.decryptions, paillier.decryptions, scope.decryptions) \
            == (3, 3, 3)
