"""Concurrent readers must always see consistent statistics snapshots.

Regression tests for the telemetry PR: ``ServerStats`` and
``PrecomputeEngine.stats()`` are polled by
live introspection (``transport.stats``, the metrics collectors, benchmark
emitters) while worker/producer threads mutate them.  Each snapshot must be
taken under the owning lock so no reader ever observes a torn view — a
batch's query count without its busy time, or hits that outrun the refills.
"""

from __future__ import annotations

import threading
from random import Random

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
            engine.encrypt_batch([1])
            engine.take_masks(1, "zn")
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
        engine.take_masks(6, "zn")
        snap = engine.stats()
        assert snap["obfuscator_hits"] == 4
        assert engine.pool_hit_total() == snap["obfuscator_hits"]
