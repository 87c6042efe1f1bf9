"""Property tests: ``multi_powmod`` is the product of ``pow`` calls, exactly.

The shared-squaring multi-exponentiation (``BigintBackend.multi_powmod``,
Straus / interleaved sliding windows on the python backend) replaces the
protocols' ``m`` independent exponentiations per strip step.  It is only
allowed to be *faster*: for every input it must return the same integer as
``prod(pow(b, e, mod)) % mod``, and ``PaillierPublicKey.weighted_sum_batch``
must return the ciphertexts — and advance the counters by the totals — of
``scalar_mul_batch`` + row-wise ``add_batch``.

Every property runs on each backend in ``available_backends()``.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import prod
from random import Random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.backend import available_backends, resolve_backend, set_backend
from repro.crypto.paillier import PaillierPublicKey
from repro.exceptions import CryptoError, EncryptionError, KeyMismatchError
from tests.property.conftest import cached_keypair


#: every test below runs once per usable bigint backend
on_every_backend = pytest.mark.parametrize("backend_name", available_backends())


@contextmanager
def active(backend_name):
    """Make ``backend_name`` the process-wide backend for the block."""
    try:
        yield set_backend(backend_name)
    finally:
        set_backend(None)


def reference(bases, exponents, modulus):
    return prod(pow(b, e, modulus) for b, e in zip(bases, exponents)) % modulus


@st.composite
def moduli(draw):
    """Moduli of 16 to 2048 bits (top bit set; odd and even alike)."""
    bits = draw(st.sampled_from([16, 17, 31, 64, 128, 512, 1024, 2048]))
    return (1 << (bits - 1)) | draw(st.integers(0, (1 << (bits - 1)) - 1))


@st.composite
def products(draw):
    """``(bases, exponents, modulus)`` with the edge cases mixed in."""
    modulus = draw(moduli())
    count = draw(st.integers(1, 6))
    bits = modulus.bit_length()
    exponent = st.one_of(
        st.sampled_from([0, 1, 2, 31, 32, 33]),
        st.integers(0, bits).map(lambda shift: 1 << shift),      # 2**i
        st.integers(0, modulus - 1),                             # full width
        st.integers(modulus, modulus << 8),                      # e >= mod
    )
    base = st.one_of(
        st.sampled_from([0, 1, modulus - 1, modulus, modulus + 1]),
        st.integers(0, modulus - 1),
        st.integers(modulus, modulus << 8),                      # b >= mod
    )
    bases = draw(st.lists(base, min_size=count, max_size=count))
    if count > 1 and draw(st.booleans()):
        bases[-1] = bases[0]                                     # repeated base
    exponents = draw(st.lists(exponent, min_size=count, max_size=count))
    if draw(st.integers(0, 9)) == 0:
        exponents = [0] * count                                  # all-zero row
    return bases, exponents, modulus


@on_every_backend
@given(case=products())
def test_multi_powmod_is_the_product_of_pows(backend_name, case):
    backend = resolve_backend(backend_name)
    bases, exponents, modulus = case
    assert (backend.multi_powmod(bases, exponents, modulus)
            == reference(bases, exponents, modulus))


@on_every_backend
@given(modulus=moduli(), data=st.data())
def test_multi_powmod_on_uniform_full_width_exponents(backend_name, modulus,
                                                      data):
    """The protocols' case: every exponent uniform below the modulus."""
    backend = resolve_backend(backend_name)
    count = data.draw(st.integers(2, 6))
    rng = Random(data.draw(st.integers(0, 2 ** 32)))
    bases = [rng.randrange(modulus) for _ in range(count)]
    exponents = [rng.randrange(modulus) for _ in range(count)]
    assert (backend.multi_powmod(bases, exponents, modulus)
            == reference(bases, exponents, modulus))


@on_every_backend
def test_multi_powmod_trivial_products(backend_name):
    backend = resolve_backend(backend_name)
    assert backend.multi_powmod([], [], 97) == 1
    assert backend.multi_powmod([], [], 1) == 0
    assert backend.multi_powmod([5, 7], [0, 0], 97) == 1
    assert backend.multi_powmod([5, 7], [0, 0], 1) == 0
    assert backend.multi_powmod([5], [3], 97) == pow(5, 3, 97)


@on_every_backend
def test_multi_powmod_rejects_bad_arguments(backend_name):
    backend = resolve_backend(backend_name)
    with pytest.raises(CryptoError):
        backend.multi_powmod([2, 3], [1], 97)
    with pytest.raises(CryptoError):
        backend.multi_powmod([2], [1, 1], 97)
    with pytest.raises(CryptoError):
        backend.multi_powmod([2, 3], [1, -1], 97)
    with pytest.raises(CryptoError):
        backend.multi_powmod([2], [-1], 97)


def test_backends_agree_on_one_product():
    rng = Random(5)
    modulus = rng.getrandbits(1024) | 1
    bases = [rng.randrange(modulus) for _ in range(4)]
    exponents = [rng.randrange(modulus) for _ in range(4)]
    results = {name: resolve_backend(name).multi_powmod(bases, exponents, modulus)
               for name in available_backends()}
    assert set(results.values()) == {reference(bases, exponents, modulus)}


# -- the Paillier row-wise method over it ------------------------------------

scalar = st.one_of(st.sampled_from([0, 1, -1, 2]),
                   st.integers(-(2 ** 200), 2 ** 200))


@on_every_backend
@given(widths=st.lists(st.integers(1, 5), min_size=1, max_size=4),
       data=st.data())
def test_weighted_sum_batch_matches_scalar_mul_and_add(backend_name, widths,
                                                       data):
    keypair = cached_keypair()
    public, private = keypair.public_key, keypair.private_key
    rng = Random(6)
    rows = [public.encrypt_batch([rng.randrange(-999, 999) for _ in range(w)],
                                 rng=rng) for w in widths]
    scalar_rows = [data.draw(st.lists(scalar, min_size=w, max_size=w))
                   for w in widths]

    with active(backend_name) as backend:
        # the documented formula: every scalar a plain exponent, -1 included
        # (the operator and scalar_mul_batch negate by the inverse instead)
        expected = []
        for row, scalars in zip(rows, scalar_rows):
            total = 1
            for cipher, s in zip(row, scalars):
                total = backend.mulmod(
                    total, backend.powmod(cipher.value, s % public.n,
                                          public.nsquare), public.nsquare)
            expected.append(total)
        middle = public.counter.snapshot()
        got = public.weighted_sum_batch(rows, scalar_rows)
        after = public.counter.snapshot()

    assert [c.value for c in got] == expected
    assert after["exponentiations"] - middle["exponentiations"] == sum(widths)
    assert (after["homomorphic_additions"] - middle["homomorphic_additions"]
            == sum(widths) - len(widths))
    assert private.decrypt_residue_batch(got) == [
        sum(private.decrypt(c) * s for c, s in zip(row, scalars)) % public.n
        for row, scalars in zip(rows, scalar_rows)]


@on_every_backend
def test_weighted_sum_batch_rejects_malformed_input(backend_name):
    public = cached_keypair().public_key
    a, b = public.encrypt_batch([1, 2], rng=Random(7))
    foreign = PaillierPublicKey(public.n + 2).encrypt(1, rng=Random(8))
    with active(backend_name):
        assert public.weighted_sum_batch([], []) == []
        counts = public.counter.snapshot()
        with pytest.raises(EncryptionError):
            public.weighted_sum_batch([[a, b]], [])                # row count
        with pytest.raises(EncryptionError):
            public.weighted_sum_batch([[a, b]], [[1]])             # scalars
        with pytest.raises(EncryptionError):
            public.weighted_sum_batch([[a, b], []], [[1, 2], []])  # empty row
        with pytest.raises(KeyMismatchError):
            public.weighted_sum_batch([[a, foreign]], [[1, 2]])
        with pytest.raises(EncryptionError):
            public.weighted_sum_batch([[a, b], [a]], [[1, 2], [1, 2]])
    assert public.counter.snapshot() == counts, "a rejected call counts nothing"
