"""Shared assertion helpers for the integration tests."""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.db.knn import LinearScanKNN, squared_euclidean
from repro.db.table import Table
from repro.protocols.base import TwoPartyProtocol


def oracle_answer(table: Table, query: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """The plaintext oracle's answer (ties broken by record order)."""
    return [r.record.values for r in LinearScanKNN(table).query(query, k)]


def assert_valid_knn_answer(table: Table, query: Sequence[int], k: int,
                            neighbors: list[tuple[int, ...]]) -> None:
    """Check a kNN answer allowing arbitrary resolution of distance ties.

    The paper does not prescribe a tie-breaking rule; SkNN_m resolves ties by
    a random choice inside C2 while the plaintext oracle uses record order.
    An answer is therefore correct when (a) it has exactly ``k`` records, (b)
    every returned record occurs in the table, (c) the multiset of distances
    equals the oracle's multiset of the k smallest distances, and (d) the
    returned records are ordered by non-decreasing distance.
    """
    assert len(neighbors) == k
    table_rows = list(table.row_values())
    for record in neighbors:
        assert tuple(record) in table_rows
    returned_distances = [squared_euclidean(record, query) for record in neighbors]
    assert returned_distances == sorted(returned_distances)
    expected_distances = sorted(squared_euclidean(record, query)
                                for record in oracle_answer(table, query, k))
    assert sorted(returned_distances) == expected_distances


def assert_stats_are_row_sums(report) -> None:
    """``report.stats`` is a projection of ``report.cost_breakdown``.

    The ``c2_*`` operation fields equal the sums over the rows of party
    ``"C2"``, the ``c1_*`` fields the sums over every other party's rows
    (C1, shard daemons) — for every execution mode, so a serial report and
    a distributed one attribute the same query the same way.
    """
    c1, c2 = Counter(), Counter()
    for row in report.cost_breakdown:
        (c2 if row["party"] == "C2" else c1).update(row["ops"])
    stats = report.stats
    assert (c2["encryptions"], c2["decryptions"], c2["exponentiations"],
            c2["homomorphic_additions"]) == (
        stats.c2_encryptions, stats.c2_decryptions, stats.c2_exponentiations,
        stats.extra.get("c2_homomorphic_additions", 0))
    assert (c1["encryptions"], c1["decryptions"], c1["exponentiations"],
            c1["homomorphic_additions"]) == (
        stats.c1_encryptions, 0, stats.c1_exponentiations,
        stats.c1_homomorphic_additions)


def record_sbd_masks(monkeypatch) -> list[int]:
    """Every SBD mask drawn from now on (their parities decide SBD's cost)."""
    drawn: list[int] = []
    original = TwoPartyProtocol.take_masks

    def recording(self, count, kind="zn", bits=None):
        tuples = original(self, count, kind, bits)
        if kind == "sbd":
            drawn.extend(r for r, _ in tuples)
        return tuples

    monkeypatch.setattr(TwoPartyProtocol, "take_masks", recording)
    return drawn
