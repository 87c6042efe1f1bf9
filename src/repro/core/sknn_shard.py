"""Cross-machine sharded SkNN_b: shard daemons scan, one coordinator merges.

The in-process :class:`~repro.core.parallel.ShardedCloud` parallelises the
distance scan by handing each pool worker *both* cloud roles for its slice
— fine inside one trust domain, impossible across machines (the workers
would need the private key).  This module is the remote placement of the
same plan, kept as its own protocol because it respects the paper's
two-cloud trust boundary; the two placements share the slicer
(:func:`shard_bounds`), the distance protocol
(:meth:`SSED.run_many <repro.protocols.ssed.SecureSquaredEuclideanDistance.
run_many>` — run here against the shared C2, there against the worker's own
decryptor) and the selection rule (:func:`~repro.core.sknn_base.top_k`):

* **Shard C1 daemons** each hold one horizontal slice of ``Epk(T)`` and run
  the SSED distance phase for their records against the shared C2, then
  send the encrypted distances (offset by the slice's global start index)
  to C2 tagged ``SkNNb.shard_distances``.
* **C2** decrypts each shard's distances (the SkNN_b leakage model — C2
  learns distances by design), keeps the shard-local top-k candidates, and
  files them into a :class:`ScanRegistry` keyed by scan id.
* **The coordinator C1** (which holds the full table for the delivery
  phase) asks C2 to ``SkNNb.gather_top_k``: C2 blocks until every shard has
  filed, merges the candidate pools, and returns the global top-k index
  list — bit-identical to the in-process plan *and* to the serial ``SkNNb``
  selection, because all of them call ``top_k``.  The coordinator then runs
  the ordinary masked delivery.

Only SkNN_b shards this way: SkNN_m's SMIN_n tournament needs the
candidates as *ciphertext* pairs threaded through log-depth rounds, which
the registry's plaintext-residue merge cannot express.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from typing import Any, Callable, Sequence

from repro.core.cloud import FederatedCloud
from repro.core.roles import ResultShares
from repro.core.sknn_base import SkNNProtocol, top_k
from repro.crypto.paillier import Ciphertext
from repro.db.encrypted_table import EncryptedTable
from repro.exceptions import DeadlineExceeded, ProtocolError, QueryError
from repro.telemetry import profiling as _profiling

__all__ = ["ScanRegistry", "ShardScanProtocol", "ShardCoordinatorProtocol",
           "shard_bounds", "shard_table"]


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


class ScanRegistry:
    """C2-side rendezvous of shard candidate filings, keyed by scan id.

    Shard connections file their slice's top-k ``(distance, global_index)``
    pairs concurrently (each on its own context worker thread); the
    coordinator's gather blocks until all ``shard_count`` filings arrived.
    A gathered scan is popped; stale scans (a coordinator that died before
    gathering) are bounded by FIFO eviction.

    Replayed filings (a shard daemon retrying its scan after a lost reply)
    simply overwrite the same ``(scan_id, shard_index)`` cell with identical
    data, so idempotent retries stay safe.
    """

    #: bound on scans awaiting their gather
    MAX_PENDING_SCANS = 32

    def __init__(self, timeout: float = 120.0) -> None:
        self.timeout = timeout
        self._condition = threading.Condition()
        #: scan id -> {shard_index: [(distance, global_index), ...]}
        self._filings: "OrderedDict[str, dict[int, list]]" = OrderedDict()

    def file(self, scan_id: str, shard_index: int,
             pairs: Sequence[tuple[int, int]]) -> None:
        """Record one shard's candidates and wake a waiting gather."""
        with self._condition:
            entry = self._filings.get(scan_id)
            if entry is None:
                entry = self._filings[scan_id] = {}
                self._filings.move_to_end(scan_id)
                while len(self._filings) > self.MAX_PENDING_SCANS:
                    self._filings.popitem(last=False)
            entry[shard_index] = [tuple(pair) for pair in pairs]
            self._condition.notify_all()

    def gather(self, scan_id: str, shard_count: int,
               timeout: float | None = None) -> list[tuple[int, int]]:
        """Wait for all shards to file, pop the scan, return every pair."""
        bound = self.timeout if timeout is None else timeout
        deadline = time.monotonic() + bound
        with self._condition:
            while True:
                entry = self._filings.get(scan_id)
                if entry is not None and len(entry) >= shard_count:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    filed = len(entry) if entry is not None else 0
                    raise DeadlineExceeded(
                        f"scan {scan_id!r}: only {filed}/{shard_count} "
                        f"shards filed within {bound:.0f}s")
                self._condition.wait(remaining)
            del self._filings[scan_id]
        merged: list[tuple[int, int]] = []
        for pairs in entry.values():
            merged.extend(pairs)
        return merged

    def pending(self) -> int:
        """Scans awaiting their gather (introspection/stats)."""
        with self._condition:
            return len(self._filings)


class ShardScanProtocol(SkNNProtocol):
    """The distance phase of one shard, plus C2's filing/merging steps.

    On a shard C1 daemon :meth:`run` scans the slice under the ``scan_id``
    the coordinator minted (an ordinary reported run, ledgered and traced as
    party ``C1-shard{i}``); on the C2 daemon only the two P2 handlers are
    dispatched (``registry`` must be set there).  The protocol deliberately
    has no delivery phase — shards never see which records win, the
    coordinator delivers.
    """

    name = "SkNNb-shard"

    P2_STEPS = {
        "SkNNb.shard_distances": "_p2_file_shard_distances",
        "SkNNb.gather_top_k": "_p2_gather_top_k",
    }

    def __init__(self, cloud: FederatedCloud, shard_index: int = 0,
                 shard_count: int = 1, start_index: int = 0,
                 registry: ScanRegistry | None = None,
                 feature_dimensions: int | None = None,
                 scan_id: str | None = None) -> None:
        super().__init__(cloud, feature_dimensions=feature_dimensions)
        self.party = f"C1-shard{shard_index}"
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.start_index = start_index
        self.registry = registry
        self.scan_id = scan_id

    def run(self, encrypted_query: Sequence[Ciphertext], k: int) -> None:
        """SSED over this shard's slice; ship the distances to C2.

        Returns no shares — the report's ``n_records`` is the number of
        records scanned.  ``k`` may exceed the slice size (it is global):
        the shard simply contributes its whole slice as candidates then.
        """
        table = self.encrypted_table
        expected = self.feature_dimensions or table.dimensions
        if len(encrypted_query) != expected:
            raise QueryError(
                f"encrypted query has {len(encrypted_query)} attributes, "
                f"expected {expected}")
        if not isinstance(k, int) or k < 1:
            raise QueryError(f"k must be a positive integer, got {k!r}")
        encrypted_distances = self._compute_encrypted_distances(
            encrypted_query)
        with _profiling.cost_scope("select"):
            self.cloud.c1.send(
                [self.scan_id, self.shard_index, self.shard_count, k,
                 self.start_index, encrypted_distances],
                tag="SkNNb.shard_distances")
            self.p2_step("SkNNb.shard_distances")
            ack = self.cloud.c1.receive(expected_tag="SkNNb.shard_filed")
        if ack != self.scan_id:
            raise ProtocolError(
                f"C2 acknowledged scan {ack!r}, expected {self.scan_id!r}")

    # -- C2 steps -------------------------------------------------------------
    def _require_registry(self) -> ScanRegistry:
        if self.registry is None:
            raise ProtocolError(
                "this party has no scan registry (not a C2 daemon?)")
        return self.registry

    def _p2_file_shard_distances(self) -> None:
        """C2: decrypt one shard's distances, file its local top-k."""
        registry = self._require_registry()
        c2 = self.cloud.c2
        scan_id, shard_index, shard_count, k, start_index, distances = (
            c2.receive(expected_tag="SkNNb.shard_distances"))
        residues = c2.decrypt_residue_batch(list(distances))
        pairs = [(residue, start_index + offset)
                 for offset, residue in enumerate(residues)]
        # Shard-local pre-selection: only k candidates per shard can reach
        # the global top-k, so only those are held for the gather.
        registry.file(str(scan_id), int(shard_index), top_k(pairs, int(k)))
        c2.send(scan_id, tag="SkNNb.shard_filed")

    def _p2_gather_top_k(self) -> None:
        """C2: block for all shard filings, merge, return the index list."""
        registry = self._require_registry()
        c2 = self.cloud.c2
        scan_id, k, shard_count = c2.receive(
            expected_tag="SkNNb.gather_top_k")
        merged = registry.gather(str(scan_id), int(shard_count))
        winners = top_k(merged, int(k))
        c2.send([index for _, index in winners], tag="SkNNb.topk_indices")


class ShardCoordinatorProtocol(SkNNProtocol):
    """The coordinator C1's side of a sharded SkNN_b query.

    Holds the *full* table (for validation and the delivery phase) plus a
    ``scatter`` callable that fans the scan out to the shard daemons and
    returns only when every shard has acknowledged filing its candidates.
    Every run mints its own scan id, so one instance serves a whole batch.
    The C2-side gather handler lives on :class:`ShardScanProtocol`; it is
    registered here too so an in-process C2 stub can dispatch it inline.
    """

    name = "SkNNb-sharded"

    P2_STEPS = dict(SkNNProtocol.P2_STEPS, **{
        "SkNNb.gather_top_k": "_p2_gather_top_k",
    })

    def __init__(self, cloud: FederatedCloud, shard_count: int,
                 scatter: Callable[[str, list[Ciphertext], int], Any],
                 registry: ScanRegistry | None = None,
                 feature_dimensions: int | None = None) -> None:
        super().__init__(cloud, feature_dimensions=feature_dimensions)
        self.shard_count = shard_count
        self._scatter = scatter
        self.registry = registry

    _p2_gather_top_k = ShardScanProtocol._p2_gather_top_k
    _require_registry = ShardScanProtocol._require_registry

    def run(self, encrypted_query: Sequence[Ciphertext],
            k: int) -> ResultShares:
        """Scatter the scan, gather the global top-k, deliver the records."""
        self._validate_query(encrypted_query, k)
        c1 = self.cloud.c1
        scan_id = uuid.uuid4().hex
        with _profiling.cost_scope("scan"):
            self._scatter(scan_id, list(encrypted_query), k)
        with _profiling.cost_scope("select"):
            c1.send([scan_id, k, self.shard_count],
                    tag="SkNNb.gather_top_k")
            self.p2_step("SkNNb.gather_top_k")
            delta = c1.receive(expected_tag="SkNNb.topk_indices")
            selected_records = [
                list(self.encrypted_table.record_at(index).ciphertexts)
                for index in delta
            ]
        return self._deliver_records(selected_records)
