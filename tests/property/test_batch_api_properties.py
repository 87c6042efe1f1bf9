"""Property tests: the batch APIs are element-wise equal to the scalar paths.

The vectorized kernel (``encrypt_batch`` / ``decrypt_batch`` /
``scalar_mul_batch`` / ``add_batch``) is only allowed to be *faster* than the
per-call scalar API — never different.  These properties pin that down:

* batch encryption decrypts to exactly the input vector (under either key's
  obfuscator source, and bit-identical ciphertexts under explicit nonces);
* batch decryption equals per-element decryption on arbitrary ciphertexts;
* batch scalar multiplication equals the per-element operator, including the
  ``-1`` negation shortcut;
* every batch call advances the operation counters by exactly the totals the
  equivalent scalar loop would produce.

The backend-parametrized properties run under every backend of
``available_backends()`` — both ``python`` and ``openssl`` wherever libcrypto
loads (this image and CI's runners), pure Python alone otherwise.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.backend import available_backends, set_backend
from tests.property.conftest import cached_keypair

plaintexts = st.lists(
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    min_size=1, max_size=8,
)

#: Backends to run every property under (openssl only where libcrypto loads).
BACKENDS = available_backends()


@pytest.fixture(params=BACKENDS)
def backend_name(request):
    """Run the decorated test once per usable bigint backend."""
    set_backend(request.param)
    yield request.param
    set_backend(None)


@given(values=plaintexts, by_key_holder=st.booleans())
def test_encrypt_batch_roundtrips(values, by_key_holder):
    keypair = cached_keypair()
    key = keypair.private_key if by_key_holder else keypair.public_key
    ciphertexts = key.encrypt_batch(values, rng=Random(1))
    assert keypair.private_key.decrypt_batch(ciphertexts) == values


@given(values=plaintexts)
def test_encrypt_batch_explicit_nonces_match_scalar_path(values):
    keypair = cached_keypair()
    public = keypair.public_key
    nonce_rng = Random(2)
    nonces = [nonce_rng.randrange(1, public.n) for _ in values]
    batch = public.encrypt_batch(values, r_values=nonces)
    scalar = [public.encrypt(value, r_value=nonce)
              for value, nonce in zip(values, nonces)]
    assert [c.value for c in batch] == [c.value for c in scalar]


@given(values=plaintexts)
def test_decrypt_batch_matches_scalar_decrypt(values):
    keypair = cached_keypair()
    ciphertexts = [keypair.public_key.encrypt(v, rng=Random(3)) for v in values]
    batch = keypair.private_key.decrypt_batch(ciphertexts)
    scalar = [keypair.private_key.decrypt(c) for c in ciphertexts]
    assert batch == scalar


@given(values=plaintexts, data=st.data())
def test_scalar_mul_batch_matches_operator(values, data):
    keypair = cached_keypair()
    public = keypair.public_key
    ciphertexts = [public.encrypt(v, rng=Random(4)) for v in values]
    scalars = data.draw(st.lists(
        st.integers(min_value=-(2 ** 16), max_value=2 ** 16),
        min_size=len(values), max_size=len(values)))
    batch = public.scalar_mul_batch(ciphertexts, scalars)
    for cipher, original, scalar in zip(batch, ciphertexts, scalars):
        if scalar % public.n == public.n - 1:
            # Negation takes the inverse shortcut: same plaintext, different
            # raw representation than the textbook exponentiation.
            assert keypair.private_key.decrypt(cipher) == \
                keypair.private_key.decrypt(original * scalar)
        else:
            assert cipher.value == (original * scalar).value


@given(values=plaintexts)
def test_add_batch_matches_operator(values):
    keypair = cached_keypair()
    public = keypair.public_key
    left = [public.encrypt(v, rng=Random(5)) for v in values]
    right = [public.encrypt(v + 1, rng=Random(6)) for v in values]
    batch = public.add_batch(left, right)
    assert [c.value for c in batch] == [(a + b).value
                                        for a, b in zip(left, right)]


@given(values=plaintexts)
@settings(max_examples=10)
def test_batch_counters_match_scalar_totals(values):
    """One batch call must account exactly like the equivalent scalar loop."""
    keypair = cached_keypair()
    public, private = keypair.public_key, keypair.private_key
    public.counter.reset()
    private.counter.reset()

    ciphertexts = public.encrypt_batch(values, rng=Random(7))
    assert public.counter.encryptions == len(values)

    private.decrypt_batch(ciphertexts)
    assert private.counter.decryptions == len(values)

    public.scalar_mul_batch(ciphertexts, [-1] * len(values))
    assert public.counter.exponentiations == len(values)

    public.add_batch(ciphertexts, ciphertexts)
    assert public.counter.homomorphic_additions == len(values)


def test_batch_apis_consistent_across_backends(backend_name):
    """Same plaintext results under every available backend."""
    keypair = cached_keypair()
    public, private = keypair.public_key, keypair.private_key
    values = [-17, 0, 1, 2 ** 30, -(2 ** 30)]
    ciphertexts = public.encrypt_batch(values, rng=Random(8))
    assert private.decrypt_batch(ciphertexts) == values
    negated = public.scalar_mul_batch(ciphertexts, -1)
    assert private.decrypt_batch(negated) == [-v for v in values]
