"""Unit tests for the attribute-wise encrypted table (Epk(T))."""

from __future__ import annotations

import pytest

from repro.db.encrypted_table import EncryptedRecord, EncryptedTable
from repro.db.schema import Schema
from repro.db.table import Table
from repro.exceptions import DatabaseError, SerializationError


@pytest.fixture()
def plain_table() -> Table:
    schema = Schema.from_names(["x", "y", "z"], maximum=50)
    return Table.from_rows(schema, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])


class TestEncryptTable:
    def test_encrypt_preserves_shape_and_ids(self, plain_table, public_key):
        encrypted = EncryptedTable.encrypt_table(plain_table, public_key)
        assert len(encrypted) == 3
        assert encrypted.dimensions == 3
        assert [r.record_id for r in encrypted] == ["t1", "t2", "t3"]

    def test_decrypt_round_trip(self, plain_table, small_keypair):
        encrypted = EncryptedTable.encrypt_table(plain_table,
                                                 small_keypair.public_key)
        decrypted = encrypted.decrypt(small_keypair.private_key)
        assert decrypted.row_values() == plain_table.row_values()

    def test_ciphertexts_are_fresh_per_cell(self, plain_table, public_key):
        """Two encryptions of the same table must not share any ciphertext."""
        first = EncryptedTable.encrypt_table(plain_table, public_key)
        second = EncryptedTable.encrypt_table(plain_table, public_key)
        first_values = {c.value for record in first for c in record}
        second_values = {c.value for record in second for c in record}
        assert first_values.isdisjoint(second_values)

    def test_append_validates_arity(self, plain_table, public_key):
        encrypted = EncryptedTable.encrypt_table(plain_table, public_key)
        with pytest.raises(DatabaseError):
            encrypted.append(EncryptedRecord("bad", [public_key.encrypt(1)]))

    def test_record_at(self, plain_table, small_keypair):
        encrypted = EncryptedTable.encrypt_table(plain_table,
                                                 small_keypair.public_key)
        record = encrypted.record_at(1)
        values = [small_keypair.private_key.decrypt(c) for c in record]
        assert values == [4, 5, 6]


class TestEncryptedTableSerialization:
    def test_dict_round_trip(self, plain_table, small_keypair):
        encrypted = EncryptedTable.encrypt_table(plain_table,
                                                 small_keypair.public_key)
        data = encrypted.to_dict()
        restored = EncryptedTable.from_dict(data)
        assert restored.decrypt(small_keypair.private_key).row_values() == \
            plain_table.row_values()
        assert restored.schema.names == plain_table.schema.names

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(SerializationError):
            EncryptedTable.from_dict({"kind": "not-a-table"})

    def test_serialized_schema_preserves_ranges(self, plain_table, small_keypair):
        encrypted = EncryptedTable.encrypt_table(plain_table,
                                                 small_keypair.public_key)
        restored = EncryptedTable.from_dict(encrypted.to_dict())
        assert restored.schema.attributes[
            restored.schema.index_of("x")].maximum == 50
