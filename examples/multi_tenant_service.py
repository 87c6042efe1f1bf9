#!/usr/bin/env python3
"""Multi-tenant secure kNN serving: many Bobs, one sharded encrypted store.

The paper's setting has a single query user, but nothing in the protocols
prevents a deployment from serving many authorized users at once: each Bob
encrypts their own queries and reconstructs their own results, so users are
cryptographically isolated from each other, while the cloud side batches
their queries into shared scan passes over the sharded encrypted table.

This example stands up a hospital-style deployment:

* Alice (the hospital) outsources an encrypted patient table, partitioned
  across two C1 shards;
* three physicians open concurrent sessions and fire kNN queries;
* the query server batches the queries, answers them scatter-gather style,
  and every physician checks their answers against the plaintext oracle.

Run it with::

    python examples/multi_tenant_service.py
"""

from __future__ import annotations

import threading
import time
from random import Random

from repro.analysis import format_table
from repro.core.system import SkNNSystem
from repro.db import synthetic_clustered
from repro.db.knn import LinearScanKNN

N_RECORDS = 36
DIMENSIONS = 3
K = 2
PHYSICIANS = 3
QUERIES_EACH = 3


def main() -> None:
    table = synthetic_clustered(n_records=N_RECORDS, dimensions=DIMENSIONS,
                                distance_bits=10, clusters=3, seed=41)
    oracle = LinearScanKNN(table)
    print(f"Alice outsources {table.describe()} (2 shards).")

    system = SkNNSystem.setup(table, key_size=256, mode="sharded", shards=2,
                              workers=2, parallel_backend="thread",
                              rng=Random(42), k_default=K)
    server = system.serve(batch_size=PHYSICIANS,
                          precompute=PHYSICIANS * QUERIES_EACH,
                          session_pool_size=16)

    workload_rng = Random(43)
    max_value = max(a.maximum for a in table.schema)
    mismatches: list[str] = []

    def physician(name: str) -> None:
        session = server.open_session(name)
        for _ in range(QUERIES_EACH):
            query = [workload_rng.randint(0, max_value)
                     for _ in range(DIMENSIONS)]
            answer = session.query(query, K, timeout=120)
            expected = [r.record.values for r in oracle.query(query, K)]
            if answer.neighbors != expected:
                mismatches.append(f"{name}: {query}")

    started = time.perf_counter()
    with server:
        threads = [threading.Thread(target=physician, args=(f"dr-{i}",))
                   for i in range(1, PHYSICIANS + 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = time.perf_counter() - started

    stats = server.stats
    print(f"\n{PHYSICIANS} concurrent physicians, "
          f"{stats.queries_served} queries served:")
    print(format_table([{
        "batches": stats.batches_served,
        "mean batch size": stats.mean_batch_size,
        "wall (s)": elapsed,
        "queries/s": stats.queries_served / elapsed,
    }]))
    if mismatches:
        print(f"MISMATCHES: {mismatches}")
    else:
        print("Every answer matches the plaintext kNN oracle — the sharded,")
        print("batched serving path is exact, and each physician only ever")
        print("saw their own results.")
    system.close()


if __name__ == "__main__":
    main()
