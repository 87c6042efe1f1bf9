"""Unit tests for SMIN and SMIN_n (Algorithms 3 and 4)."""

from __future__ import annotations

from random import Random

import pytest

from repro.exceptions import ProtocolError
from repro.protocols.encoding import decrypt_bits, encrypt_bits
from repro.protocols.smin import SecureMinimum
from repro.protocols.sminn import SecureMinimumOfN


class TestSecureMinimum:
    def test_paper_example_5(self, setting, private_key):
        """Example 5: u=55, v=58, l=6 — the minimum is 55."""
        protocol = SecureMinimum(setting)
        result = protocol.run(
            encrypt_bits(setting.public_key, 55, 6),
            encrypt_bits(setting.public_key, 58, 6),
        )
        assert decrypt_bits(private_key, result) == 55

    @pytest.mark.parametrize("u,v", [
        (0, 0), (0, 1), (1, 0), (7, 7), (0, 63), (63, 0),
        (31, 32), (32, 31), (63, 63), (1, 62), (40, 41),
    ])
    def test_boundary_pairs(self, setting, private_key, u, v):
        protocol = SecureMinimum(setting)
        result = protocol.run(
            encrypt_bits(setting.public_key, u, 6),
            encrypt_bits(setting.public_key, v, 6),
        )
        assert decrypt_bits(private_key, result) == min(u, v)

    def test_random_pairs_various_widths(self, setting, private_key):
        rng = Random(2024)
        protocol = SecureMinimum(setting)
        for bit_length in (3, 5, 8):
            for _ in range(5):
                u = rng.randrange(0, 1 << bit_length)
                v = rng.randrange(0, 1 << bit_length)
                result = protocol.run(
                    encrypt_bits(setting.public_key, u, bit_length),
                    encrypt_bits(setting.public_key, v, bit_length),
                )
                assert decrypt_bits(private_key, result) == min(u, v)

    def test_output_bits_are_bits(self, setting, private_key):
        protocol = SecureMinimum(setting)
        result = protocol.run(
            encrypt_bits(setting.public_key, 21, 6),
            encrypt_bits(setting.public_key, 42, 6),
        )
        for encrypted_bit in result:
            assert private_key.decrypt(encrypted_bit) in (0, 1)

    def test_rejects_mismatched_lengths(self, setting):
        protocol = SecureMinimum(setting)
        with pytest.raises(ProtocolError):
            protocol.run(
                encrypt_bits(setting.public_key, 1, 4),
                encrypt_bits(setting.public_key, 1, 5),
            )

    def test_rejects_empty_vectors(self, setting):
        protocol = SecureMinimum(setting)
        with pytest.raises(ProtocolError):
            protocol.run([], [])

    def test_marker_bound_admits_its_largest_length_and_no_more(
            self, setting, private_key):
        """``3^(l+1) < 2^(K/2-1)``: every non-zero ``P +- 1`` of the
        balanced-ternary marker is a unit.  The largest admitted ``l`` runs
        at the marker's extremes; one bit more is refused."""
        key_size = setting.public_key.key_size
        bit_length = 1
        while 3 ** (bit_length + 2) < 1 << (key_size // 2 - 1):
            bit_length += 1
        assert 3 ** (bit_length + 1) < 1 << (key_size // 2 - 1) \
            <= 3 ** (bit_length + 2)
        protocol = SecureMinimum(setting)
        public = setting.public_key
        top = (1 << bit_length) - 1
        # every bit differs, or only the last one does
        for u, v in ((top, 0), (0, top), (top, top - 1), (top - 1, top)):
            minimum = protocol.run(encrypt_bits(public, u, bit_length),
                                   encrypt_bits(public, v, bit_length))
            assert decrypt_bits(private_key, minimum) == min(u, v)
        with pytest.raises(ProtocolError, match=r"3\^\(l\+1\)"):
            protocol.run(encrypt_bits(public, 1, bit_length + 1),
                         encrypt_bits(public, 2, bit_length + 1))

    def test_repeated_runs_are_consistent(self, setting, private_key):
        """The random functionality F must never change the functional output."""
        protocol = SecureMinimum(setting)
        for _ in range(8):
            result = protocol.run(
                encrypt_bits(setting.public_key, 13, 6),
                encrypt_bits(setting.public_key, 29, 6),
            )
            assert decrypt_bits(private_key, result) == 13

    def test_p2_cannot_read_comparison_from_alpha_alone(self, setting, private_key):
        """alpha's meaning depends on P1's secret coin, so over many runs with
        the same inputs both alpha values must occur (otherwise P2 could infer
        the comparison outcome)."""
        protocol = SecureMinimum(setting)
        alphas = set()
        for _ in range(20):
            setting.channel.transcript.clear()
            protocol.run(
                encrypt_bits(setting.public_key, 5, 4),
                encrypt_bits(setting.public_key, 9, 4),
            )
            # The second element of P2's reply is the batch's E(alpha)s —
            # one, for the one pair.
            replies = list(setting.channel.transcript_payloads("C2"))
            _, [enc_alpha] = replies[-1]
            alphas.add(private_key.decrypt(enc_alpha))
            if len(alphas) == 2:
                break
        assert alphas == {0, 1}


class TestSecureMinimumOfN:
    def test_minimum_of_six_values(self, setting, private_key):
        protocol = SecureMinimumOfN(setting)
        values = [13, 4, 55, 9, 22, 4]
        result = protocol.run(
            [encrypt_bits(setting.public_key, v, 6) for v in values]
        )
        assert decrypt_bits(private_key, result) == 4

    def test_single_value(self, setting, private_key):
        protocol = SecureMinimumOfN(setting)
        result = protocol.run([encrypt_bits(setting.public_key, 37, 6)])
        assert decrypt_bits(private_key, result) == 37

    def test_two_values(self, setting, private_key):
        protocol = SecureMinimumOfN(setting)
        result = protocol.run([
            encrypt_bits(setting.public_key, 50, 6),
            encrypt_bits(setting.public_key, 3, 6),
        ])
        assert decrypt_bits(private_key, result) == 3

    @pytest.mark.parametrize("count", [3, 5, 7, 8])
    def test_random_lists_odd_and_even_counts(self, setting, private_key, count):
        rng = Random(count)
        protocol = SecureMinimumOfN(setting)
        values = [rng.randrange(0, 64) for _ in range(count)]
        result = protocol.run(
            [encrypt_bits(setting.public_key, v, 6) for v in values]
        )
        assert decrypt_bits(private_key, result) == min(values)

    def test_chain_topology_matches_tournament(self, setting, private_key):
        values = [45, 12, 33, 12, 60]
        encrypted = [encrypt_bits(setting.public_key, v, 6) for v in values]
        tournament = SecureMinimumOfN(setting, topology="tournament").run(encrypted)
        chain = SecureMinimumOfN(setting, topology="chain").run(encrypted)
        assert decrypt_bits(private_key, tournament) == min(values)
        assert decrypt_bits(private_key, chain) == min(values)

    def test_all_equal_values(self, setting, private_key):
        protocol = SecureMinimumOfN(setting)
        result = protocol.run(
            [encrypt_bits(setting.public_key, 17, 6) for _ in range(4)]
        )
        assert decrypt_bits(private_key, result) == 17

    def test_rejects_empty_input(self, setting):
        protocol = SecureMinimumOfN(setting)
        with pytest.raises(ProtocolError):
            protocol.run([])

    def test_rejects_inconsistent_bit_lengths(self, setting):
        protocol = SecureMinimumOfN(setting)
        with pytest.raises(ProtocolError):
            protocol.run([
                encrypt_bits(setting.public_key, 1, 4),
                encrypt_bits(setting.public_key, 1, 6),
            ])

    def test_rejects_unknown_topology(self, setting):
        with pytest.raises(ValueError):
            SecureMinimumOfN(setting, topology="ring")

    def test_depth_helper(self):
        assert SecureMinimumOfN.tree_depth(1) == 0
        assert SecureMinimumOfN.tree_depth(2) == 1
        assert SecureMinimumOfN.tree_depth(6) == 3
        assert SecureMinimumOfN.tree_depth(8) == 3
