"""Differential tests: the libcrypto backend against CPython's ``pow``.

``OpenSSLBackend`` may only be *faster* than ``pow``: for every operand —
any sign or size of base, exponent 0, one-limb moduli under the cutover
(answered by ``pow`` itself) and moduli just above it (the first to cross
into ``BN_mod_exp``), even moduli (libcrypto leaves Montgomery for its
reciprocal path, and ``BN_mod_exp2_mont`` cannot take them at all) —
``powmod`` / ``multi_powmod`` must return the integer the python backend
returns.  (``invert`` is ``pow(a, -1, m)`` under every backend, so there is
nothing to differ.)
"""

from __future__ import annotations

from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.backend import (
    _NATIVE_MIN_BITS,
    OpenSSLBackend,
    PythonBackend,
    available_backends,
)

pytestmark = pytest.mark.skipif("openssl" not in available_backends(),
                                reason="libcrypto not loadable")

#: modulus widths: one limb, either side of the cutover, the paper's sizes
WIDTHS = [1, 2, 8, 63, 64, 65, _NATIVE_MIN_BITS - 1, _NATIVE_MIN_BITS,
          _NATIVE_MIN_BITS + 1, 192, 256, 521, 1024, 2048]


@st.composite
def moduli(draw):
    """Moduli of every width above with the top bit set, odd and even."""
    bits = draw(st.sampled_from(WIDTHS))
    return (1 << (bits - 1)) | draw(st.integers(0, (1 << (bits - 1)) - 1))


def bases(modulus):
    """0, 1, in range, >= modulus (twice as wide), negative."""
    bits = modulus.bit_length()
    return st.one_of(
        st.sampled_from([0, 1, modulus - 1, modulus, modulus + 1]),
        st.integers(0, modulus - 1),
        st.integers(modulus, 1 << (2 * bits + 1)),
        st.integers(-(1 << (bits + 3)), -1))


def exponents(modulus):
    """0, small, up to the modulus' width, and wider than the modulus."""
    bits = modulus.bit_length()
    return st.one_of(st.sampled_from([0, 1, 2, 65537]),
                     st.integers(0, 1 << bits),
                     st.integers(1 << bits, 1 << (bits + 70)))


@st.composite
def powers(draw):
    modulus = draw(moduli())
    return draw(bases(modulus)), draw(exponents(modulus)), modulus


#: the suite's profile (20 examples) is sized for whole protocol runs; these
#: are microseconds each and have 14 widths x 4 base shapes to reach
thorough = settings(max_examples=300, deadline=None)


@thorough
@given(operands=powers())
def test_powmod_is_pow(operands):
    base, exponent, modulus = operands
    assert OpenSSLBackend().powmod(base, exponent, modulus) \
        == pow(base, exponent, modulus)


@thorough
@given(data=st.data())
def test_multi_powmod_is_the_product_of_pows(data):
    modulus = data.draw(moduli())
    count = data.draw(st.integers(0, 5))
    terms = [(data.draw(bases(modulus)), data.draw(exponents(modulus)))
             for _ in range(count)]
    expected = prod(pow(b, e, modulus) for b, e in terms) % modulus
    arguments = [b for b, _ in terms], [e for _, e in terms], modulus
    assert OpenSSLBackend().multi_powmod(*arguments) == expected
    assert PythonBackend().multi_powmod(*arguments) == expected


@pytest.mark.parametrize("bits", [_NATIVE_MIN_BITS - 1, _NATIVE_MIN_BITS,
                                  _NATIVE_MIN_BITS + 1])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_multi_powmod_pairs_bases_either_side_of_the_cutover(bits, count):
    """Odd moduli of 127 / 128 / 129 bits, 1 to 5 bases: pairs through
    ``BN_mod_exp2_mont``, the odd one out through ``powmod``, with a zero
    exponent (and a zero base under it), an exponent wider than the
    modulus and a base above it in every position."""
    modulus = (1 << (bits - 1)) | 0x1234567 | 1
    specials = [(0, 0), (modulus + 5, 3), (7, 1 << (bits + 3)), (0, 9)]
    for special in specials:
        for position in range(count):
            terms = [(1000003 * (index + 2), modulus - 2 - index)
                     for index in range(count)]
            terms[position] = special
            arguments = ([b for b, _ in terms], [e for _, e in terms],
                         modulus)
            expected = prod(pow(b, e, modulus) for b, e in terms) % modulus
            assert OpenSSLBackend().multi_powmod(*arguments) == expected
            assert PythonBackend().multi_powmod(*arguments) == expected
