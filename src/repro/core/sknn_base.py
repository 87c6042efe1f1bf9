"""Shared machinery for the two SkNN query protocols (Algorithms 5 and 6).

Both protocols share the same surrounding steps:

* the distance phase — C1 and C2 run SSED between the encrypted query and
  every encrypted record (step 2 of both algorithms), and
* the delivery phase — once C1 holds the ``k`` encrypted result records, it
  additively masks them, sends the masked ciphertexts to C2 for decryption and
  the masks directly to Bob, so that only Bob can recombine the plaintext
  records (steps 4-6 of Algorithm 5, reused verbatim by Algorithm 6).

They differ only in how the ``k`` nearest records are *selected*, which is
what the subclasses implement.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.cloud import FederatedCloud
from repro.core.roles import ResultShares
from repro.crypto.paillier import Ciphertext
from repro.db.encrypted_table import EncryptedTable
from repro.exceptions import ConfigurationError, ProtocolError, QueryError
from repro.network.stats import ProtocolRunStats
from repro.protocols.base import P2StepDispatcher
from repro.protocols.ssed import SecureSquaredEuclideanDistance
from repro.telemetry import metrics as _metrics
from repro.telemetry import profiling as _profiling
from repro.telemetry import tracing as _tracing

__all__ = ["SkNNProtocol", "SkNNRunReport", "top_k"]

#: process-wide delivery ids — unique across every protocol instance, so the
#: C2-side share store (or a daemon's share mailbox) can never collide even
#: when several protocol objects share one cloud.
_DELIVERY_IDS = itertools.count(1)


def top_k(pairs: Iterable[tuple[int, int]], k: int) -> list[tuple[int, int]]:
    """Algorithm 5 step 3: the ``k`` smallest ``(distance, global_index)`` pairs.

    The one selection rule of every SkNN_b execution mode.  Equal distances
    order by global record index (insertion order), exactly like the
    plaintext :class:`~repro.db.knn.LinearScanKNN` oracle, so the answer does
    not depend on how the table was sliced.
    """
    return heapq.nsmallest(k, pairs)


@dataclass
class SkNNRunReport:
    """The record of one instrumented run (one row of the evaluation).

    Built in one place, :meth:`SkNNProtocol.answer_batch_with_report`, from
    one measurement: the run's cost-ledger rows.  ``cost_breakdown`` is
    those rows, ``stats``' operation counts are their per-party sums and
    ``phase_seconds`` their per-phase seconds, so the three cannot
    disagree.  A run is a batch of queries (usually of one); ``k`` is the
    batch's largest.
    """

    protocol: str
    n_records: int
    dimensions: int
    k: int
    key_size: int
    distance_bits: int | None
    wall_time_seconds: float
    stats: ProtocolRunStats
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: cost-ledger rollup rows ``{"phase", "party", "seconds", "ops"}``
    #: attributing Paillier op counts and wall time to each protocol phase
    #: (other processes' rows join through :meth:`merge_remote`).
    cost_breakdown: list[dict[str, Any]] = field(default_factory=list)
    #: ``{"trace_id": ..., "spans": [...]}``, spans of every process merged
    trace: dict[str, Any] | None = None

    def as_row(self) -> dict[str, float]:
        """Flatten into a dictionary suitable for tabular reporting."""
        row = {
            "protocol": self.protocol,
            "n": self.n_records,
            "m": self.dimensions,
            "k": self.k,
            "key_size": self.key_size,
            "l": self.distance_bits if self.distance_bits is not None else 0,
            "wall_time_seconds": self.wall_time_seconds,
        }
        row.update({f"phase_{name}": value for name, value in self.phase_seconds.items()})
        row.update(self.stats.as_row())
        return row

    def as_payload(self) -> dict[str, Any]:
        """Lossless wire form — a C1 daemon ships its report to the client."""
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "SkNNRunReport":
        """Rebuild from :meth:`as_payload` output."""
        fields = dict(data)
        fields["stats"] = ProtocolRunStats.from_payload(fields["stats"])
        return cls(**fields)

    def merge_remote(self, trace_id: str, spans: Iterable[Any],
                     c2_window: Mapping[str, Any] | None = None,
                     shard_reports: Sequence["SkNNRunReport"] = ()) -> None:
        """Stitch in what other processes measured for this run.

        ``spans`` are this process's own spans of trace ``trace_id``,
        ``c2_window`` the C2 daemon's ``telemetry.collect`` reply
        (``{"spans", "cost"}``) and ``shard_reports`` the shard daemons'
        scan reports, each already merged with its own C2 window.  C2's
        cost rows fill the ``c2_*`` columns (:meth:`~repro.network.stats.
        ProtocolRunStats.add_cost_rows`) and the shards' counters and
        traffic join ``stats`` — so a distributed report matches a serial
        run's totals — and every cost row rides along under its own party
        label: C2's seconds overlap this party's wait and a shard scans
        beside it, so only this party's own rows sum to
        ``wall_time_seconds``.  All spans land in one start-sorted
        ``trace``.
        """
        spans = list(spans)
        if c2_window is not None:
            c2_rows = c2_window.get("cost") or []
            self.stats.add_cost_rows(c2_rows)
            self.cost_breakdown.extend(c2_rows)
            spans.extend(c2_window.get("spans") or [])
        for shard in shard_reports:
            self.stats.absorb(shard.stats)
            self.stats.extra["shard_records_scanned"] = (
                self.stats.extra.get("shard_records_scanned", 0)
                + shard.n_records)
            self.cost_breakdown.extend(shard.cost_breakdown)
            spans.extend((shard.trace or {}).get("spans") or [])
        self.trace = _tracing.trace_payload(trace_id, spans)


class SkNNProtocol(P2StepDispatcher):
    """Base class for the SkNN_b and SkNN_m query protocols.

    Like the sub-protocols, the cloud-level protocols register their C2
    steps in :attr:`P2_STEPS` and drive them through :meth:`p2_step` (the
    inherited :class:`~repro.protocols.base.P2StepDispatcher` machinery),
    so the same implementation runs over the in-memory channel (handler
    executed inline) and over TCP (handler executed by the remote C2
    daemon when the frame arrives).
    """

    #: protocol name used in reports ("SkNNb" / "SkNNm")
    name = "SkNN"

    #: party label of a reported run's cost rows and root span (a shard
    #: daemon's scan runs as ``"C1-shard{i}"``)
    party = "C1"

    #: ledger phase -> the name ``report.phase_seconds`` gives it; ``None``
    #: reports every ledger phase under its own name
    PHASE_NAMES: "dict[str, str] | None" = None

    #: placement of the distance scan.  ``None``: this party scans the table
    #: it hosts.  A shard coordinator sets a callable ``Epk(Q) -> [E(d_i)]``
    #: that scatters the scan to the daemons holding the slices and gathers
    #: their encrypted distances in record order; selection and delivery are
    #: the same either way.
    scan: "Callable[[list[Ciphertext]], list[Ciphertext]] | None" = None

    #: incoming-message tag -> name of the C2 handler method consuming it
    P2_STEPS: dict[str, str] = {
        "SkNN.masked_results": "_p2_decrypt_delivery",
    }

    def __init__(self, cloud: FederatedCloud,
                 feature_dimensions: int | None = None) -> None:
        """Create a query protocol over the cloud-hosted encrypted database.

        Args:
            cloud: the federated cloud hosting ``Epk(T)``.
            feature_dimensions: number of leading attributes the distance is
                computed over.  ``None`` (the default) uses every attribute.
                Setting it to fewer than the table's attribute count supports
                workloads where trailing columns are labels/metadata that are
                *returned* with the neighbors but must not influence the
                distance — e.g. the class column of the secure kNN classifier
                extension (the paper's Example 1 likewise excludes the
                diagnosis column ``num`` from the query).
        """
        self.cloud = cloud
        self.feature_dimensions = feature_dimensions
        self._ssed = SecureSquaredEuclideanDistance(cloud.setting)
        self.last_report: SkNNRunReport | None = None

    # -- P2 step dispatch ---------------------------------------------------------
    @property
    def _p2_channel(self):
        return self.cloud.channel

    # -- accessors ----------------------------------------------------------------
    @property
    def encrypted_table(self) -> EncryptedTable:
        """The encrypted database hosted by C1."""
        return self.cloud.c1.encrypted_table

    @property
    def public_key(self):
        """The shared Paillier public key."""
        return self.cloud.c1.public_key

    # -- common protocol phases --------------------------------------------------
    def _validate_query(self, encrypted_query: Sequence[Ciphertext], k: int) -> None:
        """Validate query arity and ``k`` against the hosted database."""
        table = self.encrypted_table
        expected = self.feature_dimensions or table.dimensions
        if expected > table.dimensions or expected < 1:
            raise QueryError(
                f"feature_dimensions={expected} is invalid for a table with "
                f"{table.dimensions} attributes"
            )
        if len(encrypted_query) != expected:
            raise QueryError(
                f"encrypted query has {len(encrypted_query)} attributes, "
                f"expected {expected}"
            )
        if not isinstance(k, int) or k < 1:
            raise QueryError(f"k must be a positive integer, got {k!r}")
        if k > len(table):
            raise QueryError(f"k={k} exceeds the database size {len(table)}")

    def _compute_encrypted_distances(
        self, encrypted_query: Sequence[Ciphertext]
    ) -> list[Ciphertext]:
        """Step 2: SSED between the query and every record, as one batched scan.

        Delegates to :meth:`~repro.protocols.ssed.
        SecureSquaredEuclideanDistance.run_many`, which negates the shared
        query once per attribute and runs all ``n * m`` squarings as one fused
        round that returns one ciphertext per record (see its docstring for
        the operation counts, modeled by ``ssed_scan_counts`` in the analysis
        layer).

        Only the leading ``len(encrypted_query)`` attributes of each record
        participate in the distance; trailing label/metadata columns (when
        ``feature_dimensions`` is set) are carried along untouched and only
        reappear in the delivered result records.

        With :attr:`scan` set the same step is a scattered one: the callable
        returns the distances other daemons computed for their slices.
        """
        width = len(encrypted_query)
        with _profiling.cost_scope("scan"), \
                _tracing.span(f"{self.name}.distance_scan",
                              records=len(self.encrypted_table)):
            if self.scan is not None:
                distances = self.scan(list(encrypted_query))
                if len(distances) != len(self.encrypted_table):
                    raise ProtocolError(
                        f"scattered scan returned {len(distances)} distances "
                        f"for {len(self.encrypted_table)} records")
                return distances
            return self._ssed.run_many(
                list(encrypted_query),
                [list(record.ciphertexts[:width])
                 for record in self.encrypted_table],
            )

    def _deliver_records(
        self, encrypted_records: Sequence[Sequence[Ciphertext]]
    ) -> ResultShares:
        """Steps 4-6 of Algorithm 5: split each result record into two shares.

        C1 masks every attribute with a fresh random value and sends the
        masked ciphertexts to C2; C2 decrypts them (seeing only uniformly
        random values) and forwards them to Bob; C1 sends the masks to Bob
        directly.  The payload carries a delivery id so C2 can file the
        decrypted share for the right query.  In the simulated runtime the
        share is collected from C2's in-process store; in the distributed
        runtime it stays on the C2 daemon (``masked_values_from_c2`` is
        ``None``) and Bob fetches it over his own connection to C2 using
        the returned ``delivery_id`` — C1's process never sees it, exactly
        as the paper's trust model requires.

        The masks are one :meth:`~repro.protocols.base.TwoPartyProtocol.
        take_masks` batch, the sub-protocols' mask source.
        """
        with _profiling.cost_scope("deliver"), \
                _tracing.span(f"{self.name}.deliver",
                              records=len(encrypted_records)):
            return self._deliver_records_traced(encrypted_records)

    def _deliver_records_traced(
        self, encrypted_records: Sequence[Sequence[Ciphertext]]
    ) -> ResultShares:
        c1 = self.cloud.c1
        pk = self.public_key
        # One mask batch for all k records, split per record.
        tuples = self._ssed.take_masks(
            sum(len(record) for record in encrypted_records))
        masks_for_bob: list[list[int]] = []
        masked_for_c2: list[list[Ciphertext]] = []
        taken = 0
        for encrypted_record in encrypted_records:
            record_tuples = tuples[taken:taken + len(encrypted_record)]
            taken += len(encrypted_record)
            masks_for_bob.append([r for r, _ in record_tuples])
            masked_for_c2.append(pk.add_batch(
                list(encrypted_record), [c for _, c in record_tuples]))

        delivery_id = next(_DELIVERY_IDS)
        c1.send([delivery_id, masked_for_c2], tag="SkNN.masked_results")
        self.p2_step("SkNN.masked_results")
        if getattr(self.cloud.channel, "runs_both_parties", True):
            masked_values = self.cloud.c2.take_delivery(delivery_id)
        else:
            masked_values = None
        return ResultShares(
            masks_from_c1=masks_for_bob,
            masked_values_from_c2=masked_values,
            modulus=self.public_key.n,
            delivery_id=delivery_id,
        )

    def _p2_decrypt_delivery(self) -> None:
        """C2's half of the delivery phase: decrypt and file the share."""
        c2 = self.cloud.c2
        delivery_id, received = c2.receive(expected_tag="SkNN.masked_results")
        masked_values = [
            c2.decrypt_residue_batch(record) for record in received
        ]
        c2.deliver_share(delivery_id, masked_values)

    # -- instrumented execution -----------------------------------------------------
    def run(self, encrypted_query: Sequence[Ciphertext], k: int) -> ResultShares:
        """Execute the query protocol; implemented by subclasses."""
        raise NotImplementedError

    def answer_batch(self, encrypted_queries: Sequence[Sequence[Ciphertext]],
                     ks: Sequence[int]) -> list[ResultShares]:
        """Answer a batch of queries: here, one :meth:`run` after the other."""
        return [self.run(query, k) for query, k in zip(encrypted_queries, ks)]

    def run_with_report(self, encrypted_query: Sequence[Ciphertext], k: int,
                        distance_bits: int | None = None) -> ResultShares:
        """Run one query — a reported batch of one — leaving its
        :class:`SkNNRunReport` in ``last_report``."""
        return self.answer_batch_with_report([encrypted_query], [k],
                                             distance_bits)[0]

    def answer_batch_with_report(
            self, encrypted_queries: Sequence[Sequence[Ciphertext]],
            ks: Sequence[int],
            distance_bits: int | None = None) -> list[ResultShares]:
        """The one instrumented runner: :meth:`answer_batch` under a cost
        ledger and a trace, recorded as ``last_report``.

        Every report — a serial query, a sharded scan pass, a scheduler
        batch, a daemon's query, batch or shard scan — is built here, from
        the ledger's rows and the channel's traffic delta alone.  When no
        trace is active yet (in-process runs) a fresh one is rooted here, so
        every report carries a ``trace`` timeline; when the caller already
        opened one (a C1 daemon roots the trace itself so it can merge in
        the C2 daemon's spans) the run joins it instead.
        """
        if len(encrypted_queries) != len(ks):
            raise ConfigurationError("batch queries and ks differ in length")
        table = self.encrypted_table
        channel = self.cloud.channel
        largest_k = max(ks, default=0)
        ledger = _profiling.CostLedger.for_setting(self.cloud.setting,
                                                   party=self.party)
        traffic_before = channel.total_traffic().snapshot()
        root = (_tracing.trace(f"query.{self.name}", party=self.party,
                               k=largest_k, n=len(table), queries=len(ks))
                if _tracing.current_wire_context() is None else None)
        started = time.perf_counter()
        with root or nullcontext(), ledger.activate():
            all_shares = self.answer_batch(encrypted_queries, ks)
        elapsed = time.perf_counter() - started
        cost_rows = ledger.finish()
        _profiling.record_phase_metrics(cost_rows)
        registry = _metrics.get_registry()
        registry.counter(
            "repro_queries_total", "SkNN queries executed, by protocol.",
            ("protocol",)).inc(len(ks), protocol=self.name)
        registry.histogram(
            "repro_query_seconds", "End-to-end SkNN query latency.",
            ("protocol",)).observe(elapsed, protocol=self.name)
        phase_seconds = _profiling.phase_seconds_of(cost_rows)
        if self.PHASE_NAMES is not None:
            phase_seconds = {name: phase_seconds.get(phase, 0.0)
                             for phase, name in self.PHASE_NAMES.items()}
        self.last_report = SkNNRunReport(
            protocol=self.name,
            n_records=len(table),
            dimensions=table.dimensions,
            k=largest_k,
            key_size=self.public_key.key_size,
            distance_bits=distance_bits,
            wall_time_seconds=elapsed,
            stats=ProtocolRunStats.from_cost_rows(
                self.name, elapsed, cost_rows, traffic_before,
                channel.total_traffic().snapshot()),
            phase_seconds=phase_seconds,
            cost_breakdown=cost_rows,
        )
        if root is not None:
            self.last_report.merge_remote(
                root.trace_id, _tracing.get_tracer().take(root.trace_id))
        return all_shares
