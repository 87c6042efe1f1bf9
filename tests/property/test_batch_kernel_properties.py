"""Property tests: the batch kernels return the integers they replace.

``BigintBackend.invert_batch`` (Montgomery's simultaneous inversion) must be
``invert`` element for element — and fail on the same value ``invert`` would
fail on first — and the key holder's CRT obfuscator power must be
``pow(h, s, N**2)`` for every ``s``.  Both may only be *cheaper*.

Every property runs on each backend in ``available_backends()``.
"""

from __future__ import annotations

from math import gcd
from random import Random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.backend import available_backends, resolve_backend, set_backend
from repro.crypto.paillier import generate_keypair
from repro.exceptions import CryptoError
from tests.property.conftest import cached_keypair

on_every_backend = pytest.mark.parametrize("backend_name", available_backends())


def units(rng: Random, modulus: int, count: int) -> list[int]:
    out: list[int] = []
    while len(out) < count:
        value = rng.randrange(1, modulus)
        if gcd(value, modulus) == 1:
            out.append(value)
    return out


@on_every_backend
@given(count=st.integers(0, 40), seed=st.integers(0, 2 ** 32),
       bits=st.sampled_from([16, 127, 128, 129, 256, 1024]))
def test_invert_batch_is_invert_per_element(backend_name, count, seed, bits):
    backend = resolve_backend(backend_name)
    rng = Random(seed)
    modulus = rng.getrandbits(bits) | (1 << (bits - 1))
    values = units(rng, modulus, count)
    assert backend.invert_batch(values, modulus) \
        == [backend.invert(value, modulus) for value in values]


@on_every_backend
@given(count=st.integers(1, 12), data=st.data())
def test_invert_batch_names_the_first_non_unit(backend_name, count, data):
    backend = resolve_backend(backend_name)
    keypair = cached_keypair()
    modulus = keypair.public_key.nsquare
    rng = Random(data.draw(st.integers(0, 2 ** 32)))
    values = units(rng, modulus, count)
    non_units = [0, keypair.private_key.p, 3 * keypair.private_key.q,
                 modulus]
    positions = sorted(data.draw(st.sets(st.integers(0, count - 1),
                                         min_size=1, max_size=3)))
    for position in positions:
        values[position] = data.draw(st.sampled_from(non_units))
    with pytest.raises(CryptoError) as caught:
        backend.invert_batch(values, modulus)
    assert str(caught.value) \
        == f"{values[positions[0]]} has no inverse modulo {modulus}"


@on_every_backend
@pytest.mark.parametrize("key_size", [128, 512])
def test_crt_obfuscator_is_the_full_size_power(backend_name, key_size):
    """50 seeded ``s``: the CRT of the two half-size powers is ``h**s mod
    N**2`` — the integer the public exponentiator returns."""
    set_backend(backend_name)
    try:
        keypair = generate_keypair(key_size, Random(key_size))
        public, private = keypair.public_key, keypair.private_key
        crt_power = private.crt_obfuscators(Random(3))
        public_power = public._windowed_obfuscators()
        h = public.obfuscator_base()
        assert crt_power.base == public_power.base == h
        rng = Random(5)
        exponents = [0, 1, public.n - 1, public.n] + [
            rng.randrange(public.n - 1) + 1 for _ in range(46)]
        for s in exponents:
            assert crt_power.pow(s) == pow(h, s, public.nsquare)
        for s in exponents[:8]:
            assert public_power.pow(s) == crt_power.pow(s)
    finally:
        set_backend(None)
