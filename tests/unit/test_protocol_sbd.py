"""Unit tests for the SBD sub-protocol."""

from __future__ import annotations

import pytest

from repro.exceptions import ProtocolError
from repro.protocols.encoding import decrypt_bits
from repro.protocols.sbd import SecureBitDecomposition


class TestSecureBitDecomposition:
    def test_paper_example_4(self, setting, private_key):
        """Example 4: z=55, l=6 must give bits <1,1,0,1,1,1> (MSB first)."""
        protocol = SecureBitDecomposition(setting, bit_length=6)
        bits = protocol.run(setting.public_key.encrypt(55))
        decrypted = [private_key.decrypt(b) for b in bits]
        assert decrypted == [1, 1, 0, 1, 1, 1]

    def test_round_trip_all_values_small_domain(self, setting, private_key):
        protocol = SecureBitDecomposition(setting, bit_length=4)
        for value in range(16):
            bits = protocol.run(setting.public_key.encrypt(value))
            assert decrypt_bits(private_key, bits) == value

    def test_round_trip_random_values(self, setting, private_key, rng):
        bit_length = 12
        protocol = SecureBitDecomposition(setting, bit_length=bit_length)
        for _ in range(10):
            value = rng.randrange(0, 1 << bit_length)
            bits = protocol.run(setting.public_key.encrypt(value))
            assert decrypt_bits(private_key, bits) == value

    def test_zero_and_maximum(self, setting, private_key):
        protocol = SecureBitDecomposition(setting, bit_length=8)
        assert decrypt_bits(private_key,
                            protocol.run(setting.public_key.encrypt(0))) == 0
        assert decrypt_bits(private_key,
                            protocol.run(setting.public_key.encrypt(255))) == 255

    def test_output_length_matches_bit_length(self, setting):
        protocol = SecureBitDecomposition(setting, bit_length=9)
        bits = protocol.run(setting.public_key.encrypt(5))
        assert len(bits) == 9

    def test_each_output_is_a_bit(self, setting, private_key):
        protocol = SecureBitDecomposition(setting, bit_length=7)
        bits = protocol.run(setting.public_key.encrypt(93))
        for encrypted_bit in bits:
            assert private_key.decrypt(encrypted_bit) in (0, 1)

    def test_rejects_nonpositive_bit_length(self, setting):
        with pytest.raises(ProtocolError):
            SecureBitDecomposition(setting, bit_length=0)

    def test_rejects_bit_length_close_to_key_size(self, setting):
        too_large = setting.public_key.n.bit_length()
        with pytest.raises(ProtocolError):
            SecureBitDecomposition(setting, bit_length=too_large)

    def test_p2_never_sees_the_value(self, setting, private_key):
        """Every value C1 sends during SBD is additively masked."""
        value = 37
        protocol = SecureBitDecomposition(setting, bit_length=6)
        setting.channel.transcript.clear()
        protocol.run(setting.public_key.encrypt(value))
        payloads = list(setting.channel.transcript_payloads("C1"))
        assert len(payloads) == 6  # one one-value batch per bit round
        for [masked] in payloads:
            decrypted = private_key.decrypt_raw_residue(masked)
            # The masked value could coincide with the true value only with
            # negligible probability; a direct equality would indicate the
            # mask was not applied.
            assert decrypted != value

