"""Unit tests for key/ciphertext serialization."""

from __future__ import annotations

import pytest

from repro.crypto import serialization as ser
from repro.exceptions import SerializationError


class TestPublicKeySerialization:
    def test_round_trip(self, public_key):
        data = ser.public_key_to_dict(public_key)
        restored = ser.public_key_from_dict(data)
        assert restored == public_key
        assert restored.g == public_key.g

    def test_json_round_trip(self, public_key):
        text = ser.dumps(ser.public_key_to_dict(public_key))
        restored = ser.public_key_from_dict(ser.loads(text))
        assert restored.n == public_key.n

    def test_rejects_wrong_kind(self, public_key):
        data = ser.public_key_to_dict(public_key)
        data["kind"] = "something-else"
        with pytest.raises(SerializationError):
            ser.public_key_from_dict(data)

    def test_rejects_wrong_version(self, public_key):
        data = ser.public_key_to_dict(public_key)
        data["format"] = 999
        with pytest.raises(SerializationError):
            ser.public_key_from_dict(data)


class TestPrivateKeySerialization:
    def test_round_trip_decrypts(self, small_keypair):
        data = ser.private_key_to_dict(small_keypair.private_key)
        restored = ser.private_key_from_dict(data)
        cipher = small_keypair.public_key.encrypt(4242)
        assert restored.decrypt(cipher) == 4242

    def test_keypair_round_trip(self, small_keypair):
        public = ser.public_key_from_dict(ser.loads(ser.dumps(
            ser.public_key_to_dict(small_keypair.public_key))))
        private = ser.private_key_from_dict(ser.loads(ser.dumps(
            ser.private_key_to_dict(small_keypair.private_key))))
        assert private.public_key == public == small_keypair.public_key
        assert private.decrypt(public.encrypt(-17)) == -17

    def test_rejects_non_dict(self):
        with pytest.raises(SerializationError):
            ser.private_key_from_dict("nope")  # type: ignore[arg-type]


class TestCiphertextSerialization:
    def test_round_trip(self, public_key, private_key):
        cipher = public_key.encrypt(987654321)
        data = ser.ciphertext_to_dict(cipher)
        restored = ser.ciphertext_from_dict(data, public_key)
        assert private_key.decrypt(restored) == 987654321

    def test_json_round_trip(self, public_key, private_key):
        cipher = public_key.encrypt(13)
        text = ser.dumps(ser.ciphertext_to_dict(cipher))
        restored = ser.ciphertext_from_dict(ser.loads(text), public_key)
        assert private_key.decrypt(restored) == 13

    def test_rejects_wrong_kind(self, public_key):
        with pytest.raises(SerializationError):
            ser.ciphertext_from_dict({"kind": "bogus", "format": 1, "value": "ff"},
                                     public_key)


class TestJsonHelpers:
    def test_loads_rejects_invalid_json(self):
        with pytest.raises(SerializationError):
            ser.loads("{not json")

    def test_loads_rejects_non_object(self):
        with pytest.raises(SerializationError):
            ser.loads("[1, 2, 3]")

    def test_hex_round_trip_through_private_functions(self):
        assert ser._hex_to_int(ser._int_to_hex(2**200 + 5)) == 2**200 + 5

    def test_negative_integers_rejected(self):
        with pytest.raises(SerializationError):
            ser._int_to_hex(-1)

    def test_invalid_hex_rejected(self):
        with pytest.raises(SerializationError):
            ser._hex_to_int("zz")
