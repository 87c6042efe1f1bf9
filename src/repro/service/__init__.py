"""Query-serving subsystem: sharded storage, batched scheduling, sessions.

This package is the multi-user serving layer on top of the protocol stack:

* :mod:`repro.service.sharding` — :class:`ShardedCloud` partitions the
  encrypted table across N C1-style shards and answers query batches
  scatter-gather style on a persistent worker pool;
* :mod:`repro.service.scheduler` — :class:`QueryServer`, the multi-session
  front door that queues, batches and answers concurrent queries, and
  :class:`QueryScheduler`, its batching policy.

Ciphertext precomputation is per party: the server side draws delivery
masks and worker pool slices from a
:class:`repro.crypto.precompute.PrecomputeEngine` (``serve(precompute=)``),
and every session can draw the obfuscation factors of its query encryptions
from an engine of its own (``serve(session_pool_size=)``), each filled off
the hot path by its owner's key.

Quickstart::

    from repro import SkNNSystem

    system = SkNNSystem.setup(table, key_size=256, mode="sharded", shards=2)
    with system.serve(batch_size=4) as server:
        bob = server.open_session("bob")
        answer = bob.query(record, k=3)
"""

from repro.service.scheduler import (
    PendingQuery,
    QueryScheduler,
    QueryServer,
    ServerStats,
    ServiceSession,
)
from repro.service.sharding import ShardedCloud, TableShard

__all__ = [
    "PendingQuery",
    "QueryScheduler",
    "QueryServer",
    "ServerStats",
    "ServiceSession",
    "ShardedCloud",
    "TableShard",
]
