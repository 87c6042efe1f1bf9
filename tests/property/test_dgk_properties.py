"""Property tests of the DGK cryptosystem (:mod:`repro.crypto.dgk`).

Plaintexts live mod the small prime ``u``: addition and scalar
multiplication are homomorphic mod ``u``, the key holder's zero test holds
exactly on multiples of ``u``, bits decrypt, and a re-randomizer changes
the ciphertext but not the plaintext.  The key is derived from the
Paillier secret key with the stated parameters, and the same on every
bigint backend.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, strategies as st

from repro.core.cloud import FederatedCloud
from repro.core.sknn_basic import SkNNBasic
from repro.crypto import numtheory as nt
from repro.crypto.backend import available_backends, set_backend
from repro.crypto.dgk import derive_key, parameters
from repro.crypto.paillier import (
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.crypto.serialization import (
    dgk_public_key_from_dict,
    dgk_public_key_to_dict,
)
from repro.db.encrypted_table import EncryptedTable
from repro.db.schema import Schema
from repro.db.table import Table
from repro.network.party import TwoPartySetting
from repro.protocols.smin import SecureMinimum
from tests.property.conftest import cached_keypair

on_every_backend = pytest.mark.parametrize("backend_name",
                                           available_backends())
messages = st.integers(min_value=-10**6, max_value=10**6)


def dgk_pair():
    """The cached key pair's DGK key (derived once, on first use)."""
    private = cached_keypair().private_key.dgk()
    return private.public_key, private


@on_every_backend
@given(a=messages, b=messages, k=messages)
def test_addition_and_scalars_are_homomorphic_mod_u(backend_name, a, b, k):
    public, private = dgk_pair()
    u = public.u
    set_backend(backend_name)
    try:
        enc_a, enc_b = public.encrypt_batch([a, b], rng=Random(a ^ b))
        [total] = public.add_batch([enc_a], [enc_b])
        [shifted] = public.add_plain_batch([enc_a], [b])
        [scaled] = public.scalar_mul_batch([enc_a], [k])
        assert private.decrypt_batch([total, shifted, scaled]) == [
            (a + b) % u, (a + b) % u, a * k % u]
    finally:
        set_backend(None)


@on_every_backend
@given(value=messages)
def test_the_zero_test_holds_exactly_on_multiples_of_u(backend_name, value):
    public, private = dgk_pair()
    set_backend(backend_name)
    try:
        samples = [value, value * public.u, 0]
        ciphertexts = private.encrypt_batch(samples, rng=Random(value))
        assert private.is_zero_batch(ciphertexts) == [
            sample % public.u == 0 for sample in samples]
        assert public.encrypt_batch(samples, rng=Random(value)) \
            == ciphertexts  # the key holder's CRT re-randomizers agree
    finally:
        set_backend(None)


@on_every_backend
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=12),
       seed=st.integers(0, 2**32))
def test_bits_decrypt(backend_name, bits, seed):
    public, private = dgk_pair()
    set_backend(backend_name)
    try:
        assert private.decrypt_batch(
            public.encrypt_batch(bits, rng=Random(seed))) == bits
    finally:
        set_backend(None)


@on_every_backend
@given(value=messages, seed=st.integers(0, 2**32))
def test_rerandomizing_changes_the_ciphertext_not_the_plaintext(
        backend_name, value, seed):
    public, private = dgk_pair()
    set_backend(backend_name)
    try:
        [cipher] = public.encrypt_batch([value], rng=Random(seed))
        [fresh] = public.add_batch(
            [cipher], public.encrypt_batch([0], rng=Random(seed + 1)))
        assert fresh != cipher
        assert private.decrypt_batch([fresh]) == [value % public.u]
    finally:
        set_backend(None)


@pytest.mark.parametrize("key_size", [128, 256])
def test_the_parameters_have_their_stated_sizes(key_size):
    keypair = cached_keypair(key_size)
    private = derive_key(keypair.private_key)
    public = private.public_key
    t, u, randomizer_bits = parameters(key_size)
    assert t == min(160, key_size // 4)
    assert randomizer_bits == public.randomizer_bits == 5 * t // 2
    assert nt.is_probable_prime(u) and u > 3 * key_size
    assert not any(nt.is_probable_prime(m) for m in range(3 * key_size, u))
    assert (public.u, public.t) == (u, t)
    assert public.n.bit_length() == key_size
    for prime, v in ((private.p, private.v_p), (private.q, private.v_q)):
        assert prime.bit_length() == key_size // 2
        assert v.bit_length() == t and nt.is_probable_prime(v)
        assert (prime - 1) % (u * v) == 0
        # g has order u * v and h order v modulo each prime
        assert pow(public.g, u * v, prime) == 1
        assert pow(public.g, u, prime) != 1 and pow(public.g, v, prime) != 1
        assert pow(public.h, v, prime) == 1 and public.h % prime != 1


def test_derivation_is_the_same_on_every_backend_and_key_object():
    """Both backends, and a key object rebuilt from the same ``p, q`` (a
    restarted key holder), derive the same key; one key object derives it
    once."""
    keypair = cached_keypair()
    keys = []
    for backend_name in available_backends():
        set_backend(backend_name)
        try:
            public = PaillierPublicKey(keypair.public_key.n)
            rebuilt = PaillierPrivateKey(public, keypair.private_key.p,
                                         keypair.private_key.q)
            keys.append(rebuilt.dgk())
            assert rebuilt.dgk() is keys[-1]
            assert rebuilt.dgk_public_key() is keys[-1].public_key
        finally:
            set_backend(None)
    assert len({(key.public_key.n, key.public_key.g, key.public_key.h, key.p)
                for key in keys}) == 1


def test_the_public_key_round_trips():
    public, _ = dgk_pair()
    assert dgk_public_key_from_dict(dgk_public_key_to_dict(public)) == public


def test_a_deployment_that_never_compares_never_derives():
    """SkNN_b hands C1 the DGK key lazily and never asks for it; the first
    SMIN derives it."""
    cached = cached_keypair()
    public = PaillierPublicKey(cached.public_key.n)
    keypair = PaillierKeyPair(public, PaillierPrivateKey(
        public, cached.private_key.p, cached.private_key.q))
    cloud = FederatedCloud.deploy(keypair, rng=Random(1))
    table = Table.from_rows(Schema.uniform(1, 3), [[3], [1], [2]])
    cloud.c1.host_database(EncryptedTable.encrypt_table(table, public,
                                                        rng=Random(2)))
    SkNNBasic(cloud).run(public.encrypt_vector([2]), 1)
    assert keypair.private_key._dgk is None
    setting = TwoPartySetting.create(keypair, rng=Random(3))
    SecureMinimum(setting).run(public.encrypt(2), public.encrypt(1), 2)
    assert keypair.private_key._dgk is not None
