"""The cheap operations are priced cheaply — by one rule each.

Two operations dominate the cloud parties' non-strip work in SkNN_m and both
have a cheap form: a homomorphic negation is a modular inverse (not
``c**(N-1)``) and a batch of them shares one inversion, and a cloud party's
obfuscator comes from its engine pool or a fixed-base exponentiator of the
key's ``h`` — the backend's for C1, the CRT pair over ``p**2`` / ``q**2``
for C2 (not a textbook ``r**N``).  Each price is decided
in one place — ``PaillierPublicKey._raw_power`` / ``scalar_mul_batch`` and
``Party.encrypt_batch`` / ``DecryptorParty.encrypt_batch`` —
so these tests watch the bigint backend itself: whatever path a protocol
takes, no full-width ``powmod`` with exponent ``N-1`` or ``N`` may reach it.

Counts are unchanged by the pricing (an inverse is still *counted* as the
exponentiation it replaces), which the cost-model harness
(``test_cost_model_agreement``) checks exactly.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from random import Random

import pytest

from repro.analysis.cost_model import smin_cost
from repro.core.cloud import FederatedCloud
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.crypto.backend import available_backends, get_backend, set_backend
from repro.crypto.paillier import (
    Ciphertext,
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine
from repro.db.datasets import synthetic_uniform
from repro.exceptions import CryptoError
from repro.network.party import TwoPartySetting
from repro.protocols.base import TwoPartyProtocol
from repro.protocols.sbd import SecureBitDecomposition
from repro.protocols.smin import SecureMinimum

from tests.integration.helpers import (assert_valid_knn_answer,
                                       record_sbd_masks)

on_every_backend = pytest.mark.parametrize("backend_name",
                                           available_backends())


@contextmanager
def spying(public_key, private_key=None):
    """Make a recording subclass of the active backend active for the block.

    The key's fixed-base exponentiator is built *before* the spy is
    installed: its one ``y**N`` is the only textbook exponentiation a cloud
    party may perform.  So is the key holder's CRT form of it when the
    block runs C2 (pass ``private_key``): its one ``(p**2)**-1 mod q**2``
    is no negation.
    """
    class Spy(type(get_backend())):
        def __init__(self) -> None:
            super().__init__()
            self.powmods: list[tuple[int, int]] = []
            self.bases: list[int] = []
            self.inverts: list[int] = []
            self.batch_sizes: list[int] = []

        def powmod(self, base, exponent, modulus):
            self.powmods.append((exponent, modulus))
            self.bases.append(base)
            return super().powmod(base, exponent, modulus)

        def invert(self, a, modulus):
            self.inverts.append(modulus)
            return super().invert(a, modulus)

        def invert_batch(self, values, modulus):
            if values:
                self.batch_sizes.append(len(values))
            return super().invert_batch(values, modulus)

        def textbook(self, public) -> list[int]:
            """Exponents ``N-1`` / ``N`` seen on modulus ``N**2``."""
            return [e for e, modulus in self.powmods
                    if modulus == public.nsquare
                    and e in (public.n - 1, public.n)]

    public_key.encrypt_batch([0])
    if private_key is not None:
        private_key.crt_obfuscators()
        private_key.dgk()  # derived on first use, not a protocol's power
    spy = Spy()
    set_backend(spy)
    try:
        yield spy
    finally:
        set_backend(None)


@contextmanager
def counting_pows(*powers):
    """Count the ``pow`` calls each fixed-base exponentiator answers."""
    counts = [0] * len(powers)
    for index, power in enumerate(powers):
        def recording(exponent, original=power.pow, index=index):
            counts[index] += 1
            return original(exponent)
        power.pow = recording
    try:
        yield counts
    finally:
        for power in powers:
            del power.pow


def fresh_keys(keypair) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Key objects of their own: what they ask of the backend is not cached
    yet (their exponentiators are built on the active backend)."""
    public = PaillierPublicKey(keypair.public_key.n)
    return public, PaillierPrivateKey(public, keypair.private_key.p,
                                      keypair.private_key.q)


def counted(setting) -> dict[str, int]:
    """Encryptions/exponentiations (both parties' Paillier work shares the
    public key's counter in-process; C2's DGK encryptions land on its
    private key's) and C2's decryptions."""
    public = setting.public_key.counter.snapshot()
    private = setting.decryptor.private_key.counter
    return {"encryptions": public["encryptions"] + private.encryptions,
            "exponentiations": public["exponentiations"],
            "decryptions": private.decryptions}


def as_counts(model, scale: int = 1) -> dict[str, float]:
    return {"encryptions": model.encryptions * scale,
            "exponentiations": model.exponentiations * scale,
            "decryptions": model.decryptions * scale}


def deploy_secure(keypair, n_records: int, bit_length: int, seed: int):
    table = synthetic_uniform(n_records=n_records, dimensions=2,
                              distance_bits=bit_length, seed=seed)
    owner = DataOwner(table, keypair=keypair, rng=Random(seed + 1))
    cloud = FederatedCloud.deploy(keypair, rng=Random(seed + 2))
    cloud.c1.host_database(owner.encrypt_database())
    client = QueryClient(keypair.public_key, table.dimensions,
                         rng=Random(seed + 3))
    return table, cloud, client


# -- price: what reaches the backend -----------------------------------------

class TestNoTextbookPowersFromTheClouds:
    BITS = 4

    def test_smin_negates_by_one_inversion_per_round(self, setting):
        public = setting.public_key
        enc_u, enc_v = public.encrypt(9), public.encrypt(6)
        protocol = SecureMinimum(setting)
        with spying(public, setting.decryptor.private_key) as spy:
            setting.reset_counters()
            minimum = protocol.run(enc_u, enc_v, self.BITS)
        assert spy.textbook(public) == []
        # round 1 negates y; round 2 is DGK's, whose flip of the top bit is
        # an exponent below u, and whose weights' cubes never reach the
        # backend.
        assert spy.inverts == [public.nsquare] and spy.batch_sizes == [1]
        assert 3 not in [exponent for exponent, _ in spy.powmods]
        # ... and the negations are counted
        assert counted(setting) == as_counts(smin_cost(self.BITS).total)
        assert setting.decryptor.decrypt_signed(minimum) == 6

    @pytest.mark.parametrize("values, chunks", [
        (((9, 6), (3, 3), (0, 15)), [3]),
        (((9, 6), (3, 3), (0, 15), (8, 7), (5, 5)), [3, 2]),
    ])
    def test_smin_batch_inverts_once_per_chunk_of_pairs(self, setting,
                                                        values, chunks):
        public = setting.public_key
        pairs = [(public.encrypt(u), public.encrypt(v)) for u, v in values]
        with spying(public, setting.decryptor.private_key) as spy:
            setting.reset_counters()
            SecureMinimum(setting).run_batch(pairs, self.BITS)
        assert spy.textbook(public) == []
        assert spy.inverts == [public.nsquare] * len(spy.batch_sizes)
        # round 1: every y of a chunk in one inversion; round 2 (DGK's)
        # none
        assert spy.batch_sizes == chunks
        assert counted(setting) == as_counts(smin_cost(self.BITS).total,
                                             len(pairs))

    def test_sbd(self, setting, monkeypatch):
        public = setting.public_key
        masks = record_sbd_masks(monkeypatch)
        enc_z = public.encrypt(11)
        decomposition = SecureBitDecomposition(setting, self.BITS)
        with spying(public) as spy:
            bits = decomposition.run(enc_z)
        assert spy.textbook(public) == []
        # one subtraction of the extracted bit per round, one more to
        # un-flip the parity under every odd mask
        assert len(spy.inverts) == self.BITS + sum(r % 2 for r in masks)
        decrypt = setting.decryptor.decrypt_signed
        assert [decrypt(bit) for bit in bits] == [1, 0, 1, 1]

    def test_a_whole_sknn_m_query(self, small_keypair):
        n_records, k = 4, 2
        table, cloud, client = deploy_secure(small_keypair, n_records,
                                             self.BITS, seed=510)
        query = [1, 2]
        encrypted_query = client.encrypt_query(query)
        protocol = SkNNSecure(cloud, distance_bits=self.BITS)
        with spying(small_keypair.public_key,
                    small_keypair.private_key) as spy:
            shares = protocol.run(encrypted_query, k)
        assert spy.textbook(small_keypair.public_key) == []
        # no negation of a query is on its own: one inversion per batch
        assert len(spy.inverts) == len(spy.batch_sizes)
        # at least SMIN_n's share: k tournaments of n - 1 pairs, each
        # negating its y once
        assert sum(spy.batch_sizes) >= k * (n_records - 1)
        assert_valid_knn_answer(table, query, k, client.reconstruct(shares))


    @on_every_backend
    def test_engine_refills_run_the_inline_kernel(self, backend_name,
                                                  small_keypair):
        """A refill is the key's one obfuscator source: C1's engine makes
        one fixed-base ``h**s`` per factor, C2's (built on the private key)
        the CRT pair of half-size powers — never ``r**N`` — and the pooled
        factors are the very ones the inline path returns for the same
        ``s`` stream."""
        set_backend(backend_name)
        try:
            public, private = fresh_keys(small_keypair)
            public_power = public._windowed_obfuscators()
            crt_power = private.crt_obfuscators()
            config = PrecomputeConfig(obfuscators=6, refill_batch=4)
            c1_engine = PrecomputeEngine(public, rng=Random(61),
                                         config=config)
            c2_engine = PrecomputeEngine(private, rng=Random(61),
                                         config=config)
            with spying(public) as spy, counting_pows(
                    public_power, crt_power._power_p,
                    crt_power._power_q) as counts:
                assert c1_engine.warm() == 6
                assert counts == [6, 0, 0]
                assert spy.textbook(public) == []
                assert c2_engine.warm() == 6
                assert counts == [6, 6, 6]
            assert {modulus for _, modulus in spy.powmods} \
                <= {private.psquare, private.qsquare}
            set_backend(backend_name)  # spying() left the default active
            pooled = c1_engine.take_available(6)
            assert c2_engine.take_available(6) == pooled
            for key in (public, private):
                inline = key.encrypt_batch([0] * 6, rng=Random(61))
                assert [cipher.value for cipher in inline] == pooled
        finally:
            set_backend(None)


class TestCloudPartyEncryption:
    """``Party.encrypt`` is ``Party.encrypt_batch`` of one."""

    @on_every_backend
    def test_single_encryptions_are_fresh_correct_and_off_the_comb(
            self, backend_name, small_keypair):
        """No engine attached: each obfuscator is one ``pow`` of a
        fixed-base exponentiator of the key's ``h`` — for C1 the backend's
        (a table of multiplications or one native power of ``h``), for C2
        the CRT pair of half-size ones — never ``r**N`` on a fresh ``r``."""
        set_backend(backend_name)
        try:
            public, private = fresh_keys(small_keypair)
            setting = TwoPartySetting.create(
                PaillierKeyPair(public, private), rng=Random(4))
            public_power = public._windowed_obfuscators()
            crt_power = private.crt_obfuscators()
            assert crt_power.base == public_power.base
            for party, power, moduli in (
                    (setting.evaluator, public_power, {public.nsquare}),
                    (setting.decryptor, crt_power,
                     {private.psquare, private.qsquare})):
                exponents = []

                def recording_pow(exponent, power_pow=power.pow):
                    exponents.append(exponent)
                    return power_pow(exponent)

                power.pow = recording_pow
                with spying(public) as spy:
                    del exponents[:]
                    before = public.counter.encryptions
                    first, second = party.encrypt(-5), party.encrypt(-5)
                del power.pow
                assert len(exponents) == len(set(exponents)) == 2
                assert spy.textbook(public) == []
                # powers of h only, each party on its own moduli
                assert {base % modulus for base, (_, modulus)
                        in zip(spy.bases, spy.powmods)} \
                    <= {public_power.base % modulus for modulus in moduli}
                assert {modulus for _, modulus in spy.powmods} <= moduli
                assert first.value != second.value
                # the CRT pair and the public exponentiator agree
                assert crt_power.pow(exponents[0]) \
                    == public_power.pow(exponents[0])
                assert setting.decryptor.decrypt_signed(first) == -5
                assert setting.decryptor.decrypt_signed(second) == -5
                assert public.counter.encryptions == before + 2
                set_backend(backend_name)  # spying() left the default active
        finally:
            set_backend(None)

    def test_an_attached_engine_serves_the_obfuscator(self, small_keypair):
        setting = TwoPartySetting.create(small_keypair, rng=Random(5))
        engine = PrecomputeEngine(small_keypair.public_key, rng=Random(6),
                                  config=PrecomputeConfig(obfuscators=2))
        engine.warm()
        setting.attach_engine(engine)
        try:
            cipher = setting.evaluator.encrypt(9)
        finally:
            setting.attach_engine(None)
        assert setting.decryptor.decrypt_signed(cipher) == 9
        assert engine.remaining() == {"obfuscators": 1}


# -- the backend changes the price of an operation, never the operations -------

class TestBackendsAgree:
    """SkNN_b and SkNN_m, identically seeded on a 128-bit key, under every
    backend: the oracle's answer, and every counter of the run report —
    both parties' encryptions / decryptions / exponentiations, messages,
    ciphertexts and bytes — equal across backends."""

    def run_both(self, backend_name: str) -> dict[str, tuple]:
        n_records, k, bit_length, query = 5, 2, 5, [2, 3]
        set_backend(backend_name)
        try:
            keypair = generate_keypair(128, Random(77))
            table, cloud, client = deploy_secure(keypair, n_records,
                                                 bit_length, seed=530)
            outcomes = {}
            for name, protocol in (
                    ("SkNN_b", SkNNBasic(cloud)),
                    ("SkNN_m", SkNNSecure(cloud, distance_bits=bit_length))):
                shares = protocol.run_with_report(client.encrypt_query(query),
                                                  k)
                answer = client.reconstruct(shares)
                assert_valid_knn_answer(table, query, k, answer)
                stats = dataclasses.asdict(protocol.last_report.stats)
                del stats["wall_time_seconds"]
                outcomes[name] = (answer, stats)
            return outcomes
        finally:
            set_backend(None)

    def test_equal_answers_counters_and_messages(self):
        runs = {name: self.run_both(name) for name in available_backends()}
        reference = runs["python"]
        assert reference["SkNN_m"][1]["messages"] \
            > reference["SkNN_b"][1]["messages"] > 0
        for name, outcomes in runs.items():
            assert outcomes == reference, name


# -- correctness of the inverse as a negation -----------------------------------

class TestNegationByInverse:
    def values(self, public) -> list[int]:
        half = public.n // 2
        return [0, 1, -1, half - 1, -(half - 1)]

    def test_operator_sub_and_batch_negate_alike(self, setting):
        public = setting.public_key
        private = setting.decryptor.private_key
        protocol = TwoPartyProtocol(setting)
        for m in self.values(public):
            cipher = public.encrypt(m)
            assert private.decrypt(-cipher) == -m
            assert private.decrypt(cipher * -1) == -m
            [batched] = protocol.neg_batch([cipher])
            # scalar and batch negation are one rule: the same integer
            assert batched.value == (-cipher).value \
                == public.raw_scalar_mul(cipher.value, -1) \
                == get_backend().invert(cipher.value, public.nsquare)

    def test_subtraction_over_the_whole_signed_range(self, setting):
        public = setting.public_key
        private = setting.decryptor.private_key
        protocol = TwoPartyProtocol(setting)
        for a in self.values(public):
            for b in self.values(public):
                enc_a, enc_b = public.encrypt(a), public.encrypt(b)
                expected = (a - b) % public.n
                by_operator = enc_a - enc_b
                [by_batch] = public.add_batch([enc_a],
                                              protocol.neg_batch([enc_b]))
                assert by_operator.value == by_batch.value
                assert private.decrypt_raw_residue(by_operator) == expected

    def test_exponents_zero_to_three_never_reach_the_backend(self, setting):
        """SMIN's ``Gamma'**alpha`` and its marker's cube: ``1``, ``c`` and
        one or two products without a backend call, counted like any other
        exponentiation."""
        public = setting.public_key
        private = setting.decryptor.private_key
        ciphers = public.encrypt_batch([4, 5, 6])
        with spying(public) as spy:
            before = public.counter.exponentiations
            zeros = public.scalar_mul_batch(ciphers, 0)
            ones = public.scalar_mul_batch(ciphers, [1, public.n + 1, 1])
            single = [ciphers[0] * 0, ciphers[0] * 1]
            cubes = public.scalar_mul_batch(ciphers, [2, 3, public.n + 3])
        assert spy.powmods == [] and spy.inverts == []
        assert [c.value for c in zeros] == [1, 1, 1]
        assert [c.value for c in ones] == [c.value for c in ciphers]
        assert [c.value for c in single] == [1, ciphers[0].value]
        assert private.decrypt_batch(cubes) == [8, 15, 18]
        assert public.counter.exponentiations == before + 11

    def test_every_negation_counts_one_exponentiation(self, setting):
        public = setting.public_key
        cipher = public.encrypt(5)
        protocol = TwoPartyProtocol(setting)
        for negate in (lambda: -cipher, lambda: cipher * (public.n - 1),
                       lambda: protocol.neg_batch([cipher]),
                       lambda: public.raw_scalar_mul(cipher.value, -1)):
            before = public.counter.exponentiations
            negate()
            assert public.counter.exponentiations == before + 1


# -- hostile input stays typed -----------------------------------------------------

class TestNonUnitsFailTyped:
    """``0`` and multiples of a prime factor have no inverse: negating them
    raises (``0**(N-1)`` used to return ``0`` silently), on every path."""

    @on_every_backend
    def test_negating_a_non_unit_raises_and_is_not_counted(
            self, backend_name, small_keypair):
        public = small_keypair.public_key
        private = small_keypair.private_key
        good = public.encrypt(3)
        set_backend(backend_name)
        try:
            for raw in (0, private.p, 5 * private.q, private.p * public.n):
                hostile = Ciphertext(public, raw)
                before = public.counter.snapshot()
                for negate in (lambda: hostile * -1, lambda: -hostile,
                               lambda: good - hostile,
                               lambda: hostile * (public.n - 1),
                               lambda: public.raw_scalar_mul(
                                   hostile.value, -1),
                               lambda: public.scalar_mul_batch(
                                   [good, hostile], -1)):
                    with pytest.raises(CryptoError, match="no inverse"):
                        negate()
                assert public.counter.snapshot() == before
        finally:
            set_backend(None)

    @on_every_backend
    def test_a_non_unit_in_the_middle_of_a_batch_is_the_one_named(
            self, backend_name, small_keypair):
        """One inversion per batch fails on the *product*; the error still
        names the culprit, and nothing is counted."""
        setting = TwoPartySetting.create(small_keypair, rng=Random(8))
        public = setting.public_key
        hostile = 7 * small_keypair.private_key.q
        batch = public.encrypt_batch([1, 2, 3, 4, 5])
        batch[2] = Ciphertext(public, hostile)
        set_backend(backend_name)
        try:
            before = public.counter.snapshot()
            with pytest.raises(CryptoError) as caught:
                TwoPartyProtocol(setting).neg_batch(batch)
            assert str(caught.value) \
                == f"{hostile} has no inverse modulo {public.nsquare}"
            assert public.counter.snapshot() == before
        finally:
            set_backend(None)

    def test_a_protocol_negating_a_non_unit_aborts(self, small_keypair):
        # SMIN's first round negates its second operand
        setting = TwoPartySetting.create(small_keypair, rng=Random(3))
        public = setting.public_key
        hostile = Ciphertext(public, small_keypair.private_key.p)
        with pytest.raises(CryptoError, match="no inverse"):
            SecureMinimum(setting).run(public.encrypt(1), hostile, 4)
