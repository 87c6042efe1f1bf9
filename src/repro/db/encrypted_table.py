"""Attribute-wise encrypted table — the paper's ``Epk(T)``.

The data owner encrypts every attribute of every record separately
(``Epk(t_{i,j})`` for all ``i, j``) and outsources the resulting
:class:`EncryptedTable` to cloud C1.  Record identifiers remain in the clear —
they carry no sensitive information (the paper's ``record-id`` column) and C1
needs a handle to address ciphertexts; everything else is ciphertext.

The class also supports serialization so the "outsourcing" step can cross a
process boundary, and re-randomization so a table can be republished without
linkability between the two copies.
"""

from __future__ import annotations

from random import Random
from typing import Any, Iterator, Sequence

from repro.crypto.paillier import Ciphertext, PaillierPrivateKey, PaillierPublicKey
from repro.crypto.serialization import (
    ciphertext_from_dict,
    ciphertext_to_dict,
    public_key_from_dict,
    public_key_to_dict,
)
from repro.db.schema import Schema
from repro.db.table import Record, Table
from repro.exceptions import DatabaseError, SerializationError

__all__ = ["EncryptedRecord", "EncryptedTable"]


class EncryptedRecord:
    """One record of the encrypted database: clear id + encrypted attributes."""

    __slots__ = ("record_id", "ciphertexts")

    def __init__(self, record_id: str, ciphertexts: Sequence[Ciphertext]) -> None:
        self.record_id = record_id
        self.ciphertexts = tuple(ciphertexts)

    def __len__(self) -> int:
        return len(self.ciphertexts)

    def __iter__(self) -> Iterator[Ciphertext]:
        return iter(self.ciphertexts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"EncryptedRecord(id={self.record_id!r}, m={len(self.ciphertexts)})"


class EncryptedTable:
    """The attribute-wise encrypted database ``Epk(T)`` hosted by cloud C1."""

    def __init__(self, schema: Schema, public_key: PaillierPublicKey,
                 records: Sequence[EncryptedRecord] = ()) -> None:
        self.schema = schema
        self.public_key = public_key
        self._records: list[EncryptedRecord] = []
        for record in records:
            self.append(record)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def encrypt_table(cls, table: Table, public_key: PaillierPublicKey,
                      rng: Random | None = None) -> "EncryptedTable":
        """Encrypt a plaintext table attribute-wise (Alice's outsourcing step)."""
        encrypted_records = [
            EncryptedRecord(record.record_id,
                            public_key.encrypt_vector(record.values, rng=rng))
            for record in table
        ]
        return cls(table.schema, public_key, encrypted_records)

    # -- mutation ----------------------------------------------------------------
    def append(self, record: EncryptedRecord) -> None:
        """Append an encrypted record, validating its arity."""
        if len(record) != self.schema.dimensions:
            raise DatabaseError(
                f"encrypted record {record.record_id!r} has {len(record)} "
                f"attributes, schema expects {self.schema.dimensions}"
            )
        self._records.append(record)

    # -- accessors ---------------------------------------------------------------
    @property
    def records(self) -> tuple[EncryptedRecord, ...]:
        """All encrypted records in insertion order."""
        return tuple(self._records)

    @property
    def dimensions(self) -> int:
        """Number of attributes (the paper's ``m``)."""
        return self.schema.dimensions

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EncryptedRecord]:
        return iter(self._records)

    def record_at(self, index: int) -> EncryptedRecord:
        """The encrypted record at a 0-based position."""
        return self._records[index]

    # -- operations used by the protocols -------------------------------------------
    def decrypt(self, private_key: PaillierPrivateKey) -> Table:
        """Decrypt the whole table (only possible for the key holder; testing aid)."""
        table = Table(self.schema)
        for record in self._records:
            values = [private_key.decrypt(c) for c in record.ciphertexts]
            table.insert(Record(record.record_id, tuple(values)))
        return table

    # -- serialization ---------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Serialize to a JSON-compatible dictionary (the outsourcing payload)."""
        return {
            "kind": "encrypted-table",
            "public_key": public_key_to_dict(self.public_key),
            "schema": {
                "attributes": [
                    {
                        "name": a.name,
                        "description": a.description,
                        "minimum": a.minimum,
                        "maximum": a.maximum,
                    }
                    for a in self.schema.attributes
                ]
            },
            "records": [
                {
                    "record_id": record.record_id,
                    "ciphertexts": [ciphertext_to_dict(c) for c in record.ciphertexts],
                }
                for record in self._records
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EncryptedTable":
        """Reconstruct an encrypted table from :meth:`to_dict` output."""
        if not isinstance(data, dict) or data.get("kind") != "encrypted-table":
            raise SerializationError("not a serialized encrypted table")
        from repro.db.schema import Attribute  # local import to avoid cycle at module load

        public_key = public_key_from_dict(data["public_key"])
        schema = Schema(tuple(
            Attribute(item["name"], item.get("description", ""),
                      item.get("minimum", 0), item.get("maximum", 2**31 - 1))
            for item in data["schema"]["attributes"]
        ))
        records = [
            EncryptedRecord(
                item["record_id"],
                [ciphertext_from_dict(c, public_key) for c in item["ciphertexts"]],
            )
            for item in data["records"]
        ]
        return cls(schema, public_key, records)
