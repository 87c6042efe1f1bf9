"""Unit tests for the Paillier cryptosystem and its homomorphic properties."""

from __future__ import annotations

from random import Random

import pytest

from repro.crypto.paillier import (
    Ciphertext,
    OperationCounter,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from repro.exceptions import (
    DecryptionError,
    EncryptionError,
    KeyGenerationError,
    KeyMismatchError,
)


class TestKeyGeneration:
    def test_key_size_matches_request(self, small_keypair):
        assert small_keypair.key_size == 128

    @pytest.mark.parametrize("key_size", [64, 128, 256, 512])
    def test_modulus_has_exactly_the_requested_bits(self, key_size):
        for seed in range(12):
            keypair = generate_keypair(key_size, Random(seed))
            assert keypair.public_key.key_size == key_size, seed

    def test_distinct_primes(self, small_keypair):
        private = small_keypair.private_key
        assert private.p != private.q
        assert private.p * private.q == small_keypair.public_key.n

    def test_rejects_tiny_key_size(self):
        with pytest.raises(KeyGenerationError):
            generate_keypair(8)

    def test_private_key_requires_matching_factors(self, small_keypair):
        public = small_keypair.public_key
        with pytest.raises(KeyGenerationError):
            PaillierPrivateKey(public, 17, 19)

    def test_public_key_rejects_tiny_modulus(self):
        with pytest.raises(KeyGenerationError):
            PaillierPublicKey(6)

    def test_deterministic_generation_with_seed(self):
        first = generate_keypair(128, Random(5))
        second = generate_keypair(128, Random(5))
        assert first.public_key.n == second.public_key.n


class TestEncryptDecrypt:
    def test_round_trip_small_values(self, public_key, private_key):
        for value in (0, 1, 2, 255, 10**6, 2**40):
            assert private_key.decrypt(public_key.encrypt(value)) == value

    def test_round_trip_negative_values(self, public_key, private_key):
        for value in (-1, -57, -(10**6)):
            assert private_key.decrypt(public_key.encrypt(value)) == value

    def test_encryption_is_probabilistic(self, public_key):
        first = public_key.encrypt(42)
        second = public_key.encrypt(42)
        assert first.value != second.value

    def test_explicit_nonce_is_deterministic(self, public_key):
        first = public_key.encrypt(42, r_value=12345)
        second = public_key.encrypt(42, r_value=12345)
        assert first.value == second.value

    def test_rejects_plaintext_at_or_above_modulus(self, public_key):
        with pytest.raises(EncryptionError):
            public_key.encrypt(public_key.n)

    def test_rejects_too_negative_plaintext(self, public_key):
        with pytest.raises(EncryptionError):
            public_key.encrypt(-(public_key.n // 2) - 1)

    def test_decrypt_rejects_out_of_range_ciphertext(self, public_key, private_key):
        with pytest.raises(DecryptionError):
            private_key.raw_decrypt(0)
        with pytest.raises(DecryptionError):
            private_key.raw_decrypt(public_key.nsquare + 1)

    def test_crt_and_naive_decryption_agree(self, public_key, private_key, rng):
        for _ in range(20):
            value = rng.randrange(0, 2**40)
            ciphertext = public_key.encrypt(value)
            assert private_key.raw_decrypt(ciphertext.value, use_crt=True) == \
                private_key.raw_decrypt(ciphertext.value, use_crt=False)

    def test_decrypt_requires_matching_key(self, public_key, private_key):
        other = generate_keypair(128, Random(77))
        foreign = other.public_key.encrypt(5)
        with pytest.raises(KeyMismatchError):
            private_key.decrypt(foreign)

    def test_raw_residue_decrypt_does_not_decode_sign(self, public_key, private_key):
        ciphertext = public_key.encrypt(-5)
        assert private_key.decrypt_raw_residue(ciphertext) == public_key.n - 5

    def test_vector_round_trip(self, public_key, private_key):
        values = [1, 2, 3, 500, 0]
        ciphertexts = public_key.encrypt_vector(values)
        assert [private_key.decrypt(c) for c in ciphertexts] == values


class TestHomomorphicProperties:
    def test_addition_of_ciphertexts(self, public_key, private_key, rng):
        for _ in range(20):
            a = rng.randrange(0, 2**30)
            b = rng.randrange(0, 2**30)
            result = public_key.encrypt(a) + public_key.encrypt(b)
            assert private_key.decrypt(result) == a + b

    def test_addition_of_plaintext_constant(self, public_key, private_key):
        result = public_key.encrypt(100) + 23
        assert private_key.decrypt(result) == 123
        result = 23 + public_key.encrypt(100)
        assert private_key.decrypt(result) == 123

    def test_scalar_multiplication(self, public_key, private_key, rng):
        for _ in range(20):
            a = rng.randrange(0, 2**20)
            scalar = rng.randrange(0, 2**10)
            result = public_key.encrypt(a) * scalar
            assert private_key.decrypt(result) == a * scalar

    def test_scalar_multiplication_is_commutative_with_int(self, public_key,
                                                           private_key):
        assert private_key.decrypt(3 * public_key.encrypt(7)) == 21

    def test_scalar_multiplication_reduces_scalar_mod_n(self, public_key,
                                                        private_key):
        result = public_key.encrypt(7) * (public_key.n + 2)
        assert private_key.decrypt(result) == 14

    def test_adding_an_encryption_of_zero_rerandomizes(self, public_key,
                                                       private_key):
        original = public_key.encrypt(321)
        refreshed = original + public_key.encrypt(0)
        assert refreshed.value != original.value
        assert private_key.decrypt(refreshed) == 321

    def test_subtraction(self, public_key, private_key):
        result = public_key.encrypt(59) - public_key.encrypt(58)
        assert private_key.decrypt(result) == 1
        result = public_key.encrypt(58) - public_key.encrypt(59)
        assert private_key.decrypt(result) == -1

    def test_subtraction_of_constant(self, public_key, private_key):
        assert private_key.decrypt(public_key.encrypt(10) - 4) == 6

    def test_negation(self, public_key, private_key):
        assert private_key.decrypt(-public_key.encrypt(13)) == -13

    def test_paper_example_negative_via_modulus(self, public_key, private_key):
        # The paper's convention: "N - x" is equivalent to "-x" under Z_N.
        enc = public_key.encrypt(7) * (public_key.n - 1)
        assert private_key.decrypt(enc) == -7

    def test_mixed_expression(self, public_key, private_key):
        # E(2*a + 3*b - c)
        a, b, c = 11, 7, 5
        expression = (public_key.encrypt(a) * 2 + public_key.encrypt(b) * 3
                      - public_key.encrypt(c))
        assert private_key.decrypt(expression) == 2 * a + 3 * b - c

    def test_cannot_combine_ciphertexts_from_different_keys(self, public_key):
        other = generate_keypair(128, Random(31))
        with pytest.raises(KeyMismatchError):
            _ = public_key.encrypt(1) + other.public_key.encrypt(2)

    def test_addition_not_supported_with_float(self, public_key):
        with pytest.raises(TypeError):
            _ = public_key.encrypt(1) + 2.5


class TestSignedEncoding:
    def test_encode_decode_round_trip(self, public_key):
        for value in (0, 1, -1, 1000, -1000):
            assert public_key.decode_signed(public_key.encode_signed(value)) == value

    def test_encode_negative_uses_upper_range(self, public_key):
        encoded = public_key.encode_signed(-3)
        assert encoded == public_key.n - 3


class TestCiphertextObject:
    def test_equality_same_raw_value(self, public_key):
        cipher = public_key.encrypt(9, r_value=777)
        clone = Ciphertext(public_key, cipher.value)
        assert cipher == clone
        assert hash(cipher) == hash(clone)

    def test_inequality_for_fresh_encryptions(self, public_key):
        assert public_key.encrypt(9) != public_key.encrypt(9)

    def test_not_equal_to_other_types(self, public_key):
        assert public_key.encrypt(9) != 9


class TestObfuscatorBase:
    """``h = y**N`` is drawn once per key, from a generator seeded with the
    caller's rng state, without advancing the caller's rng."""

    @staticmethod
    def twin_keypairs():
        return generate_keypair(128, Random(57)), generate_keypair(128, Random(57))

    def test_drawing_the_base_leaves_the_callers_rng_unmoved(self):
        public = generate_keypair(128, Random(58)).public_key
        rng = Random(1)
        state = rng.getstate()
        public.obfuscator_base(rng)
        assert rng.getstate() == state

    def test_crt_obfuscators_leave_the_callers_rng_unmoved(self):
        private = generate_keypair(128, Random(59)).private_key
        rng = Random(2)
        state = rng.getstate()
        private.crt_obfuscators(rng)
        assert rng.getstate() == state

    def test_twin_keys_with_equal_rng_states_share_the_base(self):
        first, second = self.twin_keypairs()
        assert first.public_key.obfuscator_base(Random(3)) \
            == second.public_key.obfuscator_base(Random(3))

    def test_different_rng_states_draw_different_bases(self):
        first, second = self.twin_keypairs()
        assert first.public_key.obfuscator_base(Random(3)) \
            != second.public_key.obfuscator_base(Random(4))

    def test_the_base_is_drawn_once(self):
        public = generate_keypair(128, Random(60)).public_key
        base = public.obfuscator_base(Random(3))
        assert public.obfuscator_base(Random(4)) == base
        assert public.obfuscator_base() == base

    def test_key_holder_obfuscators_match_the_public_ones(self):
        first, second = self.twin_keypairs()
        assert first.public_key.obfuscators(4, Random(8)) \
            == second.private_key.obfuscators(4, Random(8))


class TestOperationCounter:
    def test_counts_encryptions_and_decryptions(self):
        keypair = generate_keypair(128, Random(55))
        public, private = keypair.public_key, keypair.private_key
        public.counter.reset()
        private.counter.reset()
        ciphertexts = [public.encrypt(i) for i in range(5)]
        for ciphertext in ciphertexts:
            private.decrypt(ciphertext)
        assert public.counter.encryptions == 5
        assert private.counter.decryptions == 5

    def test_counts_exponentiations(self):
        keypair = generate_keypair(128, Random(56))
        public = keypair.public_key
        public.counter.reset()
        cipher = public.encrypt(3)
        _ = cipher * 10
        _ = cipher * 20
        assert public.counter.exponentiations == 2

    def test_snapshot_reset_and_merge(self):
        counter = OperationCounter(encryptions=2, decryptions=1)
        other = OperationCounter(encryptions=3, exponentiations=4)
        merged = counter.merged_with(other)
        assert merged.encryptions == 5
        assert merged.decryptions == 1
        assert merged.exponentiations == 4
        counter.reset()
        assert counter.snapshot() == {
            "encryptions": 0,
            "decryptions": 0,
            "exponentiations": 0,
            "homomorphic_additions": 0,
        }
