"""Sharded encrypted store: N C1-style shards queried scatter-gather style.

The paper's C1 hosts the whole encrypted table ``Epk(T)`` and its per-record
distance work is embarrassingly parallel (Section 5.3).  A serving deployment
takes the natural next step: partition the table across ``N`` shards, run the
SkNN_b distance phase on every shard concurrently and merge the distances
into the global top-k — a scatter-gather query plan over C1 replicas.

That plan is the in-process scan plan of :mod:`repro.core.parallel` (the
parallel SkNN_b of the paper's Figure 3 is its one-shard case), so the
classes live there; this module is where the serving layer names them.
"""

from repro.core.parallel import ShardedCloud, TableShard

__all__ = ["TableShard", "ShardedCloud"]
