"""Property-based tests for serialization round-trips (hypothesis)."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.crypto import serialization as ser
from repro.db.encrypted_table import EncryptedTable
from repro.db.schema import Schema
from repro.db.table import Table
from tests.property.conftest import cached_keypair

plaintexts = st.integers(min_value=-(2**40), max_value=2**40)


@given(value=plaintexts)
def test_ciphertext_json_round_trip(value):
    keypair = cached_keypair()
    cipher = keypair.public_key.encrypt(value)
    text = ser.dumps(ser.ciphertext_to_dict(cipher))
    restored = ser.ciphertext_from_dict(ser.loads(text), keypair.public_key)
    assert keypair.private_key.decrypt(restored) == value



@given(value=plaintexts)
def test_keypair_round_trip_preserves_decryption(value):
    keypair = cached_keypair()
    private = ser.private_key_from_dict(ser.loads(ser.dumps(
        ser.private_key_to_dict(keypair.private_key))))
    assert private.decrypt(keypair.public_key.encrypt(value)) == value

@given(rows=st.lists(
    st.lists(st.integers(min_value=0, max_value=255), min_size=2, max_size=2),
    min_size=1, max_size=6))
def test_encrypted_table_round_trip(rows):
    keypair = cached_keypair()
    table = Table.from_rows(Schema.uniform(2, maximum=255), rows)
    encrypted = EncryptedTable.encrypt_table(table, keypair.public_key)
    restored = EncryptedTable.from_dict(encrypted.to_dict())
    assert restored.decrypt(keypair.private_key).row_values() == table.row_values()


@given(value=st.integers(min_value=0, max_value=2**256))
def test_hex_integer_round_trip(value):
    assert ser._hex_to_int(ser._int_to_hex(value)) == value
