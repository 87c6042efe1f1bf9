"""Cross-machine sharded scan: shard daemons scan, the coordinator gathers.

Algorithm 5 has one selection step and Section 5.3 parallelises only the
per-record SSED in front of it.  Across machines that is all that is
sharded here:

* **Shard C1 daemons** each hold one horizontal slice of ``Epk(T)``
  (:func:`shard_table`) and run the SSED distance phase for their records
  against the shared C2 (:class:`ShardScanProtocol`), then hand the
  *encrypted* distances back to whoever asked.
* **The coordinator C1** holds the full table and is an ordinary
  :class:`~repro.core.sknn_basic.SkNNBasic` / :class:`~repro.core.
  sknn_secure.SkNNSecure` whose :attr:`~repro.core.sknn_base.SkNNProtocol.
  scan` scatters the query to the shards and concatenates their replies in
  shard order — which is record order, the slices being contiguous.
  Selection and delivery are the inherited serial steps, so C2's view of a
  sharded query *is* the serial view (same tags, the same ``n`` distances
  once, the same masked values) and answers are bit-identical by
  construction.  Shards return ciphertexts, so SkNN_m runs over a scattered
  scan too (only its scan is sharded so far).

The in-process :class:`~repro.core.parallel.ShardedCloud` shares the slicer
(:func:`shard_bounds`), the distance protocol (:meth:`SSED.run_many
<repro.protocols.ssed.SecureSquaredEuclideanDistance.run_many>`) and the
selection rule (:func:`~repro.core.sknn_base.top_k`) with this placement and
deliberately nothing else: its pool workers sit inside one trust domain,
hold ``sk`` and *decrypt their own slices*, so the driver never decrypts a
distance (its ``crypto_ops_per_query`` on e2e's ``serve_local_k512`` is the
``2·k·m`` = 32 operations of the delivery, under a 1% bound).  A shard
daemon must never hold ``sk``.  One plan with the placement as a value
would branch on exactly that fact in every step after the scan, so the two
stay two.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.cloud import FederatedCloud
from repro.core.sknn_base import SkNNProtocol
from repro.crypto.paillier import Ciphertext
from repro.db.encrypted_table import EncryptedTable
from repro.exceptions import QueryError

__all__ = ["ShardScanProtocol", "shard_bounds", "shard_table"]


def shard_bounds(n_records: int, shard_count: int) -> list[tuple[int, int]]:
    """Near-equal contiguous ``[start, stop)`` slice bounds for each shard.

    The first ``n_records % shard_count`` shards get one extra record.  This
    is the only table slicer: the in-process plan partitions with it and
    daemon provisioning slices with it (through :func:`shard_table`).
    """
    if shard_count < 1:
        raise QueryError(f"shard_count must be positive, got {shard_count}")
    base, extra = divmod(n_records, shard_count)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(shard_count):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def shard_table(table: EncryptedTable, shard_index: int,
                shard_count: int) -> tuple[EncryptedTable, int]:
    """One shard's slice of an encrypted table plus its global start index."""
    bounds = shard_bounds(len(table), shard_count)
    if not 0 <= shard_index < shard_count:
        raise QueryError(
            f"shard_index {shard_index} out of range for {shard_count} shards")
    start, stop = bounds[shard_index]
    slice_table = EncryptedTable(table.schema, table.public_key,
                                 table.records[start:stop])
    return slice_table, start


class ShardScanProtocol(SkNNProtocol):
    """The distance phase of one shard daemon's slice, and nothing after it.

    An ordinary reported run (ledgered and traced under ``party``, a
    ``"C1-shard{i}"`` label) whose result is the slice's encrypted
    distances.  A shard never selects or delivers — it does not learn which
    records win — so ``k`` is only the runner's signature and is ignored.
    """

    name = "SkNNb-shard"

    def __init__(self, cloud: FederatedCloud, party: str,
                 feature_dimensions: int | None = None) -> None:
        super().__init__(cloud, feature_dimensions=feature_dimensions)
        self.party = party

    def run(self, encrypted_query: Sequence[Ciphertext],
            k: int = 0) -> list[Ciphertext]:
        """SSED over this shard's slice: ``E(d_i)`` in slice order."""
        expected = self.feature_dimensions or self.encrypted_table.dimensions
        if len(encrypted_query) != expected:
            raise QueryError(
                f"encrypted query has {len(encrypted_query)} attributes, "
                f"expected {expected}")
        return self._compute_encrypted_distances(encrypted_query)
