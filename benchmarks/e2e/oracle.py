"""The benchmark's correctness rule, against the plaintext oracle.

SkNN_b sorts decrypted distances with the record index as tie-break, so its
answer must equal :class:`~repro.db.knn.LinearScanKNN` exactly.  SkNN_m
breaks distance ties at random (``_build_indicator`` draws from
``c2.rng.choice``, as the paper prescribes), so on a tie at the k-th
distance several answers are right: the rule is then that every returned
tuple is a table record, none is used more often than the table holds it,
and the sorted squared distances equal the oracle's.  A naive equality check
reports a false "wrong answer" on such ties.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.db.knn import LinearScanKNN, squared_euclidean
from repro.db.table import Table

__all__ = ["Oracle"]


class Oracle:
    """Plaintext kNN over one table, with both acceptance rules."""

    def __init__(self, table: Table) -> None:
        self._scan = LinearScanKNN(table)
        self._multiplicity = Counter(
            tuple(record.values) for record in table)

    def expected(self, query: Sequence[int], k: int) -> list[tuple[int, ...]]:
        """The oracle's answer, with its index tie-break."""
        return [tuple(neighbor.record.values)
                for neighbor in self._scan.query(query, k)]

    def is_correct(self, query: Sequence[int], k: int,
                   answer: Sequence[Sequence[int]], exact: bool) -> bool:
        """Whether ``answer`` is a right answer to ``(query, k)``.

        ``exact`` selects the SkNN_b rule (equality with the oracle);
        otherwise the SkNN_m distance-profile rule applies.
        """
        answer = [tuple(record) for record in answer]
        expected = self.expected(query, k)
        if exact:
            return answer == expected
        if len(answer) != k:
            return False
        used = Counter(answer)
        if any(count > self._multiplicity[record]
               for record, count in used.items()):
            return False  # not a table record, or reused beyond its copies
        return (sorted(squared_euclidean(record, query) for record in answer)
                == [squared_euclidean(record, query) for record in expected])
