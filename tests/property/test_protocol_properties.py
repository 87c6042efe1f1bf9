"""Property-based tests for the secure sub-protocols (hypothesis).

These exercise the protocol invariants on arbitrary inputs from the declared
domains: SM multiplies, SSED computes the squared distance, SBD decomposes,
SMIN/SMIN_n select the true minimum, SBOR computes OR — always under
encryption, always checked against the plaintext ground truth.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.protocols.encoding import decrypt_bits
from repro.protocols.sbd import SecureBitDecomposition
from repro.protocols.sbor import SecureBitOr
from repro.protocols.smin import SecureMinimum
from repro.protocols.sminn import SecureMinimumOfN
from repro.protocols.sm import SecureMultiplication
from repro.protocols.ssed import SecureSquaredEuclideanDistance
from tests.property.conftest import cached_keypair, cached_setting

BIT_LENGTH = 6
values_6bit = st.integers(min_value=0, max_value=(1 << BIT_LENGTH) - 1)
attribute_values = st.integers(min_value=0, max_value=200)
vectors = st.lists(attribute_values, min_size=1, max_size=6)


@given(a=st.integers(min_value=0, max_value=2**24),
       b=st.integers(min_value=0, max_value=2**24))
def test_sm_computes_products(a, b):
    setting = cached_setting()
    keypair = cached_keypair()
    result = SecureMultiplication(setting).run(
        setting.public_key.encrypt(a), setting.public_key.encrypt(b))
    assert keypair.private_key.decrypt_raw_residue(result) == a * b


@given(data=st.data())
def test_ssed_computes_squared_distance(data):
    setting = cached_setting()
    keypair = cached_keypair()
    x = data.draw(vectors)
    y = data.draw(st.lists(attribute_values, min_size=len(x), max_size=len(x)))
    result = SecureSquaredEuclideanDistance(setting).run(
        setting.public_key.encrypt_vector(x),
        setting.public_key.encrypt_vector(y))
    expected = sum((a - b) ** 2 for a, b in zip(x, y))
    assert keypair.private_key.decrypt_raw_residue(result) == expected


@settings(max_examples=12)
@given(value=values_6bit)
def test_sbd_round_trip(value):
    setting = cached_setting()
    keypair = cached_keypair()
    bits = SecureBitDecomposition(setting, BIT_LENGTH).run(
        setting.public_key.encrypt(value))
    assert decrypt_bits(keypair.private_key, bits) == value


@settings(max_examples=12)
@given(u=values_6bit, v=values_6bit)
def test_smin_selects_minimum(u, v):
    setting = cached_setting()
    keypair = cached_keypair()
    result = SecureMinimum(setting).run(
        setting.public_key.encrypt(u), setting.public_key.encrypt(v),
        BIT_LENGTH)
    assert keypair.private_key.decrypt(result) == min(u, v)


@settings(max_examples=8)
@given(values=st.lists(values_6bit, min_size=1, max_size=6))
def test_sminn_selects_global_minimum(values):
    setting = cached_setting()
    keypair = cached_keypair()
    result = SecureMinimumOfN(setting).run(
        setting.public_key.encrypt_batch(values), BIT_LENGTH)
    assert keypair.private_key.decrypt(result) == min(values)


@given(a=st.integers(min_value=0, max_value=1),
       b=st.integers(min_value=0, max_value=1))
def test_sbor_is_logical_or(a, b):
    setting = cached_setting()
    keypair = cached_keypair()
    result = SecureBitOr(setting).run(
        setting.public_key.encrypt(a), setting.public_key.encrypt(b))
    assert keypair.private_key.decrypt(result) == (a | b)


@settings(max_examples=10)
@given(u=values_6bit, v=values_6bit)
def test_smin_is_commutative(u, v):
    """min(u, v) == min(v, u) regardless of the oblivious coin flips."""
    setting = cached_setting()
    keypair = cached_keypair()
    protocol = SecureMinimum(setting)
    public = setting.public_key
    first = keypair.private_key.decrypt(protocol.run(
        public.encrypt(u), public.encrypt(v), BIT_LENGTH))
    second = keypair.private_key.decrypt(protocol.run(
        public.encrypt(v), public.encrypt(u), BIT_LENGTH))
    assert first == second == min(u, v)
