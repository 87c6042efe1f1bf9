"""In-memory relational table — the plaintext database ``T`` of the paper.

A :class:`Table` couples a :class:`~repro.db.schema.Schema` with a list of
:class:`Record` rows.  It is the object the data owner (Alice) holds before
encryption and the object Bob ultimately reconstructs record-by-record from
the protocol output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.db.schema import Schema
from repro.exceptions import DatabaseError, SchemaError

__all__ = ["Record", "Table"]


@dataclass(frozen=True)
class Record:
    """One database record: an identifier plus its attribute values."""

    record_id: str
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.record_id:
            raise SchemaError("record_id must be non-empty")

    def __len__(self) -> int:
        return len(self.values)

    def as_dict(self, schema: Schema) -> dict[str, int]:
        """Map attribute names to values according to ``schema``."""
        if len(self.values) != schema.dimensions:
            raise SchemaError(
                f"record {self.record_id!r} does not match the schema arity"
            )
        return dict(zip(schema.names, self.values))


class Table:
    """A schema-validated collection of records (the plaintext database T)."""

    def __init__(self, schema: Schema, records: Iterable[Record] = ()) -> None:
        self.schema = schema
        self._records: list[Record] = []
        self._index: dict[str, int] = {}
        for record in records:
            self.insert(record)

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[Sequence[int]],
                  id_prefix: str = "t") -> "Table":
        """Build a table from raw value rows, generating ids ``t1, t2, ...``.

        The 1-based ids match the paper's ``t_1 ... t_n`` notation.
        """
        records = [Record(f"{id_prefix}{i + 1}", tuple(row))
                   for i, row in enumerate(rows)]
        return cls(schema, records)

    # -- mutation ----------------------------------------------------------------
    def insert(self, record: Record) -> None:
        """Insert a record after validating it against the schema."""
        if record.record_id in self._index:
            raise DatabaseError(f"duplicate record id {record.record_id!r}")
        self.schema.validate_record(record.values)
        self._index[record.record_id] = len(self._records)
        self._records.append(record)

    # -- accessors ---------------------------------------------------------------
    @property
    def records(self) -> tuple[Record, ...]:
        """All records in insertion order."""
        return tuple(self._records)

    @property
    def dimensions(self) -> int:
        """Number of attributes (the paper's ``m``)."""
        return self.schema.dimensions

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._index

    def get(self, record_id: str) -> Record:
        """Fetch a record by id."""
        try:
            return self._records[self._index[record_id]]
        except KeyError as exc:
            raise DatabaseError(f"no record with id {record_id!r}") from exc

    def row_values(self) -> list[tuple[int, ...]]:
        """All attribute vectors (without ids), in insertion order."""
        return [record.values for record in self._records]

    # -- analytics ----------------------------------------------------------------
    def squared_distance(self, record_id: str, query: Sequence[int]) -> int:
        """Plaintext squared Euclidean distance between a record and a query."""
        record = self.get(record_id)
        if len(query) != self.dimensions:
            raise DatabaseError(
                f"query has {len(query)} attributes, table has {self.dimensions}"
            )
        return sum((a - b) ** 2 for a, b in zip(record.values, query))

    def describe(self) -> str:
        """Short human-readable summary (used by examples)."""
        return (
            f"Table with {len(self)} records and {self.dimensions} attributes: "
            f"{', '.join(self.schema.names)}"
        )
