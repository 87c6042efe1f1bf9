"""Unit tests for the bit-vector encoding helpers."""

from __future__ import annotations

import pytest

from repro.exceptions import DomainError
from repro.protocols.encoding import (
    bits_to_int,
    decrypt_bits,
    encrypt_bits,
    int_to_bits,
    recompose_from_encrypted_bits,
)


class TestIntToBits:
    def test_known_decompositions(self):
        assert int_to_bits(55, 6) == [1, 1, 0, 1, 1, 1]
        assert int_to_bits(58, 6) == [1, 1, 1, 0, 1, 0]
        assert int_to_bits(0, 4) == [0, 0, 0, 0]
        assert int_to_bits(15, 4) == [1, 1, 1, 1]

    def test_round_trip(self):
        for value in range(64):
            assert bits_to_int(int_to_bits(value, 6)) == value

    def test_leading_zero_padding(self):
        assert int_to_bits(1, 8) == [0] * 7 + [1]

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            int_to_bits(16, 4)
        with pytest.raises(DomainError):
            int_to_bits(-1, 4)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(DomainError):
            int_to_bits(0, 0)

    def test_bits_to_int_rejects_non_bits(self):
        with pytest.raises(DomainError):
            bits_to_int([0, 2, 1])


class TestEncryptedBitVectors:
    def test_encrypt_decrypt_round_trip(self, public_key, private_key):
        for value in (0, 1, 37, 63):
            bits = encrypt_bits(public_key, value, 6)
            assert decrypt_bits(private_key, bits) == value

    def test_recompose_matches_value(self, public_key, private_key):
        for value in (0, 1, 5, 42, 255):
            bits = encrypt_bits(public_key, value, 8)
            recomposed = recompose_from_encrypted_bits(bits)
            assert private_key.decrypt(recomposed) == value

    def test_recompose_rejects_empty(self):
        with pytest.raises(DomainError):
            recompose_from_encrypted_bits([])

    def test_recompose_is_weighted_sum(self, public_key, private_key):
        """Recomposition of the all-ones vector gives 2**l - 1."""
        bits = encrypt_bits(public_key, 15, 4)
        assert private_key.decrypt(recompose_from_encrypted_bits(bits)) == 15
