"""Property-based tests for the Paillier cryptosystem (hypothesis)."""

from __future__ import annotations

from hypothesis import given, strategies as st

from tests.property.conftest import cached_keypair

#: Plaintexts well below N/2 so signed encoding is always unambiguous.
plaintexts = st.integers(min_value=0, max_value=2**48)
signed_plaintexts = st.integers(min_value=-(2**40), max_value=2**40)
small_scalars = st.integers(min_value=0, max_value=2**16)


@given(value=signed_plaintexts)
def test_encrypt_decrypt_round_trip(value):
    keypair = cached_keypair()
    assert keypair.private_key.decrypt(keypair.public_key.encrypt(value)) == value


@given(a=plaintexts, b=plaintexts)
def test_homomorphic_addition(a, b):
    keypair = cached_keypair()
    public, private = keypair.public_key, keypair.private_key
    result = public.encrypt(a) + public.encrypt(b)
    assert private.decrypt(result) == a + b


@given(a=plaintexts, constant=plaintexts)
def test_homomorphic_plaintext_addition(a, constant):
    keypair = cached_keypair()
    result = keypair.public_key.encrypt(a) + constant
    assert keypair.private_key.decrypt(result) == a + constant


@given(a=st.integers(min_value=0, max_value=2**32), scalar=small_scalars)
def test_homomorphic_scalar_multiplication(a, scalar):
    keypair = cached_keypair()
    result = keypair.public_key.encrypt(a) * scalar
    assert keypair.private_key.decrypt(result) == a * scalar


@given(a=signed_plaintexts, b=signed_plaintexts)
def test_homomorphic_subtraction(a, b):
    keypair = cached_keypair()
    public, private = keypair.public_key, keypair.private_key
    result = public.encrypt(a) - public.encrypt(b)
    assert private.decrypt(result) == a - b


@given(value=signed_plaintexts)
def test_signed_encoding_round_trip(value):
    public = cached_keypair().public_key
    assert public.decode_signed(public.encode_signed(value)) == value


@given(value=plaintexts)
def test_crt_decryption_matches_naive(value):
    keypair = cached_keypair()
    cipher = keypair.public_key.encrypt(value)
    assert keypair.private_key.raw_decrypt(cipher.value, use_crt=True) == \
        keypair.private_key.raw_decrypt(cipher.value, use_crt=False)


@given(a=plaintexts, b=plaintexts, c=plaintexts)
def test_addition_is_associative_under_decryption(a, b, c):
    keypair = cached_keypair()
    public, private = keypair.public_key, keypair.private_key
    left = (public.encrypt(a) + public.encrypt(b)) + public.encrypt(c)
    right = public.encrypt(a) + (public.encrypt(b) + public.encrypt(c))
    assert private.decrypt(left) == private.decrypt(right) == a + b + c


@given(value=plaintexts)
def test_rerandomization_preserves_plaintext(value):
    keypair = cached_keypair()
    original = keypair.public_key.encrypt(value)
    refreshed = original + keypair.public_key.encrypt(0)
    assert refreshed.value != original.value
    assert keypair.private_key.decrypt(refreshed) == value
