"""Unit tests for SMIN and SMIN_n (Algorithms 3 and 4) on encrypted integers."""

from __future__ import annotations

from random import Random

import pytest

from repro.exceptions import ProtocolError
from repro.protocols.encoding import encrypt_bits
from repro.protocols.smin import SecureMinimum
from repro.protocols.sminn import SecureMinimumOfN


class TestSecureMinimum:
    def test_paper_example_5(self, setting, private_key):
        """Example 5: u=55, v=58, l=6 — the minimum is 55.  The example's
        bit vectors are recomposed and compared as integers."""
        protocol = SecureMinimum(setting)
        result = protocol.run(
            encrypt_bits(setting.public_key, 55, 6),
            encrypt_bits(setting.public_key, 58, 6),
        )
        assert private_key.decrypt(result) == 55

    @pytest.mark.parametrize("u,v", [
        (0, 0), (0, 1), (1, 0), (7, 7), (0, 63), (63, 0),
        (31, 32), (32, 31), (63, 63), (1, 62), (40, 41),
    ])
    def test_boundary_pairs(self, setting, private_key, u, v):
        public = setting.public_key
        protocol = SecureMinimum(setting)
        result = protocol.run(public.encrypt(u), public.encrypt(v), 6)
        assert private_key.decrypt(result) == min(u, v)

    def test_random_pairs_various_widths(self, setting, private_key):
        rng = Random(2024)
        public = setting.public_key
        protocol = SecureMinimum(setting)
        for bit_length in (1, 3, 5, 8):
            for _ in range(5):
                u = rng.randrange(0, 1 << bit_length)
                v = rng.randrange(0, 1 << bit_length)
                result = protocol.run(public.encrypt(u), public.encrypt(v),
                                      bit_length)
                assert private_key.decrypt(result) == min(u, v)

    def test_bit_vectors_and_integers_run_one_comparison(self, setting,
                                                         private_key):
        """Bit vectors are recomposed (``L`` their length) into the integer
        round's frames: the same two tags either way."""
        public = setting.public_key
        protocol = SecureMinimum(setting)
        tags = []
        for operands in ((encrypt_bits(public, 21, 6),
                          encrypt_bits(public, 42, 6)),
                         (public.encrypt(21), public.encrypt(42))):
            setting.channel.transcript.clear()
            result = protocol.run(*operands, bit_length=6)
            assert private_key.decrypt(result) == 21
            tags.append([message.tag
                         for message in setting.channel.transcript])
        assert tags[0] == tags[1]
        assert tags[0][0] == "SMIN.batch_masked_differences"

    def test_integer_operands_need_a_bit_length(self, setting):
        public = setting.public_key
        protocol = SecureMinimum(setting)
        with pytest.raises(ProtocolError):
            protocol.run(public.encrypt(1), public.encrypt(2))
        with pytest.raises(ProtocolError):
            protocol.run(encrypt_bits(public, 1, 4),
                         encrypt_bits(public, 2, 4), bit_length=5)

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
        """``3^(L+1) < 2^(K/2-1)``: every non-zero ``P +- 1`` of the
        balanced-ternary marker is a unit.  The largest admitted ``L`` runs
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
            minimum = protocol.run(public.encrypt(u), public.encrypt(v),
                                   bit_length)
            assert private_key.decrypt(minimum) == min(u, v)
        with pytest.raises(ProtocolError, match=r"3\^\(L\+1\)"):
            protocol.run(public.encrypt(1), public.encrypt(2),
                         bit_length + 1)

    def test_repeated_runs_are_consistent(self, setting, private_key):
        """The random functionality F must never change the functional output."""
        protocol = SecureMinimum(setting)
        public = setting.public_key
        for _ in range(8):
            result = protocol.run(public.encrypt(13), public.encrypt(29), 6)
            assert private_key.decrypt(result) == 13

    def test_p2_cannot_read_comparison_from_t_alone(self, setting,
                                                    private_key):
        """t's meaning depends on P1's secret coin F, so over many runs with
        the same inputs both values of t must occur (otherwise P2 could infer
        the comparison outcome)."""
        protocol = SecureMinimum(setting)
        public = setting.public_key
        choices = set()
        for _ in range(20):
            setting.channel.transcript.clear()
            protocol.run(public.encrypt(5), public.encrypt(9), 4)
            # P2's last reply is one [candidate, E(t)] row, for the one pair
            [[_, enc_t]] = list(setting.channel.transcript_payloads("C2"))[-1]
            choices.add(private_key.decrypt(enc_t))
            if len(choices) == 2:
                break
        assert choices == {0, 1}


class TestSecureMinimumOfN:
    def test_minimum_of_six_values(self, setting, private_key):
        protocol = SecureMinimumOfN(setting)
        values = [13, 4, 55, 9, 22, 4]
        result = protocol.run(
            setting.public_key.encrypt_batch(values), 6)
        assert private_key.decrypt(result) == 4

    def test_single_value(self, setting, private_key):
        protocol = SecureMinimumOfN(setting)
        result = protocol.run([setting.public_key.encrypt(37)], 6)
        assert private_key.decrypt(result) == 37

    def test_two_values(self, setting, private_key):
        protocol = SecureMinimumOfN(setting)
        result = protocol.run(setting.public_key.encrypt_batch([50, 3]), 6)
        assert private_key.decrypt(result) == 3

    def test_bit_vectors_are_recomposed(self, setting, private_key):
        protocol = SecureMinimumOfN(setting)
        result = protocol.run([encrypt_bits(setting.public_key, v, 6)
                               for v in (13, 4, 55)])
        assert private_key.decrypt(result) == 4

    @pytest.mark.parametrize("count", [3, 5, 7, 8])
    def test_random_lists_odd_and_even_counts(self, setting, private_key, count):
        rng = Random(count)
        protocol = SecureMinimumOfN(setting)
        values = [rng.randrange(0, 64) for _ in range(count)]
        result = protocol.run(setting.public_key.encrypt_batch(values), 6)
        assert private_key.decrypt(result) == min(values)

    def test_chain_topology_matches_tournament(self, setting, private_key):
        values = [45, 12, 33, 12, 60]
        encrypted = setting.public_key.encrypt_batch(values)
        tournament = SecureMinimumOfN(setting, topology="tournament").run(
            encrypted, 6)
        chain = SecureMinimumOfN(setting, topology="chain").run(encrypted, 6)
        assert private_key.decrypt(tournament) == min(values)
        assert private_key.decrypt(chain) == min(values)

    def test_all_equal_values(self, setting, private_key):
        protocol = SecureMinimumOfN(setting)
        result = protocol.run(setting.public_key.encrypt_batch([17] * 4), 6)
        assert private_key.decrypt(result) == 17

    def test_rejects_empty_input(self, setting):
        protocol = SecureMinimumOfN(setting)
        with pytest.raises(ProtocolError):
            protocol.run([], 6)

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
