"""Unit tests for the number-theory primitives."""

from __future__ import annotations

from random import Random

import pytest

from repro.crypto import numtheory as nt
from repro.exceptions import CryptoError


class TestIsProbablePrime:
    def test_small_primes_are_prime(self):
        for prime in (2, 3, 5, 7, 11, 13, 97, 101, 7919):
            assert nt.is_probable_prime(prime)

    def test_small_composites_are_not_prime(self):
        for composite in (0, 1, 4, 6, 9, 15, 91, 7917, 100000):
            assert not nt.is_probable_prime(composite)

    def test_negative_numbers_are_not_prime(self):
        assert not nt.is_probable_prime(-7)

    def test_carmichael_numbers_rejected(self):
        # Carmichael numbers fool the Fermat test but not Miller-Rabin.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not nt.is_probable_prime(carmichael)

    def test_large_known_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert nt.is_probable_prime(2**127 - 1)

    def test_large_known_composite(self):
        # 2^128 + 1 is composite (not a Fermat prime).
        assert not nt.is_probable_prime(2**128 + 1)

    def test_deterministic_with_rng(self):
        rng = Random(1)
        value = (2**89 - 1) * (2**61 - 1)
        assert not nt.is_probable_prime(value, rng=rng)


class TestGeneratePrime:
    def test_generated_prime_has_requested_bits(self):
        rng = Random(5)
        for bits in (16, 32, 64, 128):
            prime = nt.generate_prime(bits, rng)
            assert prime.bit_length() == bits
            assert nt.is_probable_prime(prime)

    def test_generated_prime_is_odd(self):
        prime = nt.generate_prime(32, Random(9))
        assert prime % 2 == 1

    def test_rejects_tiny_bit_lengths(self):
        with pytest.raises(CryptoError):
            nt.generate_prime(4)

    def test_prime_pair_distinct_and_sized(self):
        p, q = nt.generate_prime_pair(128, Random(3))
        assert p != q
        assert (p * q).bit_length() == 128

    @pytest.mark.parametrize("bits", [64, 128, 256, 512])
    def test_prime_pair_keeps_a_first_draw_of_full_length(self, bits):
        """A short product is redrawn; a full-length first draw is returned
        as drawn, so keys that were already K bits stay bit-identical."""
        kept = 0
        for seed in range(12):
            rng = Random(seed)
            p = nt.generate_prime(bits // 2, rng)
            q = nt.generate_prime(bits // 2, rng)
            pair = nt.generate_prime_pair(bits, Random(seed))
            assert (pair[0] * pair[1]).bit_length() == bits
            if (p * q).bit_length() == bits and p != q:
                assert pair == (p, q)
                kept += 1
        assert 0 < kept < 12

    def test_prime_pair_rejects_odd_bit_count(self):
        with pytest.raises(CryptoError):
            nt.generate_prime_pair(127)

    def test_prime_pair_rejects_tiny_modulus(self):
        with pytest.raises(CryptoError):
            nt.generate_prime_pair(8)


class TestEgcdAndModinv:
    def test_egcd_bezout_identity(self):
        rng = Random(2)
        for _ in range(50):
            a = rng.randrange(1, 10**9)
            b = rng.randrange(1, 10**9)
            g, x, y = nt.egcd(a, b)
            assert a * x + b * y == g
            assert a % g == 0 and b % g == 0

    def test_modinv_round_trip(self):
        rng = Random(3)
        modulus = 10007  # prime
        for _ in range(50):
            a = rng.randrange(1, modulus)
            inverse = nt.modinv(a, modulus)
            assert (a * inverse) % modulus == 1

    def test_modinv_raises_for_non_invertible(self):
        with pytest.raises(CryptoError):
            nt.modinv(6, 9)

    def test_modinv_of_negative_value(self):
        inverse = nt.modinv(-3, 7)
        assert (-3 * inverse) % 7 == 1


class TestLcm:
    def test_lcm_basic(self):
        assert nt.lcm(4, 6) == 12
        assert nt.lcm(7, 13) == 91
        assert nt.lcm(0, 5) == 0


class TestRandomSampling:
    def test_random_below_in_range(self):
        rng = Random(17)
        for _ in range(200):
            value = nt.random_below(1000, rng)
            assert 0 <= value < 1000

    def test_random_below_rejects_nonpositive_bound(self):
        with pytest.raises(CryptoError):
            nt.random_below(0)

    def test_random_in_zn_star_is_invertible(self):
        rng = Random(23)
        modulus = 3 * 5 * 7 * 11 * 13
        for _ in range(50):
            unit = nt.random_in_zn_star(modulus, rng)
            assert nt.egcd(unit, modulus)[0] == 1

    def test_random_in_zn_star_rejects_a_multiple_of_p(self):
        """A scripted rng offers ``p`` first: the sampler must pass it over."""
        p, q = 1009, 1013

        class Scripted(Random):
            offers = iter([p - 1, 2 * p - 1, 4])  # candidates p, 2p, 5

            def randrange(self, *args):
                return next(self.offers)

        assert nt.random_in_zn_star(p * q, Scripted()) == 5

    def test_random_in_zn_star_does_not_run_python_egcd(self, monkeypatch):
        """The per-factor coprimality test is ``math.gcd``; the pure-Python
        ``egcd`` cost 1.7x the ``r^N`` power it guarded in a pool refill."""
        def forbidden(a, b):
            raise AssertionError("random_in_zn_star called egcd")

        monkeypatch.setattr(nt, "egcd", forbidden)
        assert nt.random_in_zn_star(1009 * 1013, Random(3)) > 0

    def test_secure_random_without_rng(self):
        value = nt.random_below(1 << 64)
        assert 0 <= value < 1 << 64
