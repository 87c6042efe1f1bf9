"""A key-holder adversary: C2 reads the randomness of what it decrypts.

C2 holds ``p`` and ``q``, so for any ciphertext ``c`` it can compute the
Paillier randomness ``rho(c) = (c mod N)^(N^-1 mod phi(N)) mod N`` — ``c mod
N`` is ``rho^N mod N`` whatever ``c`` encrypts.  A homomorphic combination of
ciphertexts has the same combination of their randomness (a plain constant
has randomness 1), so C2 can check a guess about what C1 combined: the guess
is *verified* when the randomness it predicts from C2's catalogue equals the
randomness C2 reads.  The catalogue is the randomness of the inputs whose
origin C2 knows — its own encryptions (the comparison's ``z`` bits, the
indicator ``U``) and, conservatively, every other input of the
combination.  Only a fresh factor of C1's own on each ciphertext C2
decrypts keeps every guess unverifiable.

Two targets:

* the integer comparison's DGK entries, guessing ``r mod 2^L`` and ``s``.
  C2 holds the DGK factorization too: it decrypts an entry's ``m mod u``
  and reads ``c * g^(-m) mod n`` as a group element, which an entry built
  only from C2's own bit encryptions would let it predict;
* SkNN_m's ``tau_i``, guessing ``d_min - d_i``.

Each verifies the true guess when C1's zeros (its DGK re-randomizers, for
the entries) are made trivial (the control: the adversary would work) and
no guess with the ones C1 draws.  The structural companion checks the same
property without an adversary: for every ciphertext C2 decrypts or
zero-tests in a query, some factor C1 drew — an obfuscator or a DGK
re-randomizer — enters it and no other one.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.core.cloud import FederatedCloud
from repro.core.sknn_secure import SkNNSecure
from repro.crypto import numtheory as nt
from repro.crypto.backend import available_backends, set_backend
from repro.crypto.paillier import Ciphertext
from repro.crypto.precompute import mask_range
from repro.db.encrypted_table import EncryptedTable
from repro.db.schema import Schema
from repro.db.table import Table
from repro.network.party import TwoPartySetting
from repro.protocols.base import P2StepDispatcher
from repro.protocols.encoding import int_to_bits
from repro.protocols.smin import SecureMinimum
from tests.integration.helpers import record_sbd_masks
from tests.property.conftest import cached_keypair

on_every_backend = pytest.mark.parametrize("backend_name",
                                           available_backends())


class KeyHolder:
    """C2's reading of ciphertexts: plaintext and randomness."""

    def __init__(self, private_key) -> None:
        self.private = private_key
        self.n = private_key.public_key.n
        phi = (private_key.p - 1) * (private_key.q - 1)
        self._root = nt.modinv(self.n, phi)

    def randomness(self, cipher: Ciphertext) -> int:
        return pow(cipher.value % self.n, self._root, self.n)

    def residue(self, cipher: Ciphertext) -> int:
        return self.private.decrypt_raw_residue(cipher)

    def ratio_exponent(self, value: int, unit: int) -> int | None:
        """``value / unit mod N``, or ``None`` when ``unit`` is 0."""
        unit %= self.n
        return value * nt.modinv(unit, self.n) % self.n if unit else None


class DGKKeyHolder:
    """C2's reading of DGK values: plaintext mod ``u`` and the group
    element ``c * g^(-m) mod n``."""

    def __init__(self, private_key) -> None:
        self.key = private_key.dgk()
        self.public = self.key.public_key

    def plaintext(self, value: int) -> int:
        return self.key.decrypt_batch([value])[0]

    def reading(self, value: int, plaintext: int | None = None) -> int:
        if plaintext is None:
            plaintext = self.plaintext(value)
        n = self.public.n
        return value * pow(self.public.g_power(plaintext), -1, n) % n


def trivial_zeros(party) -> None:
    """Make every ``E(0)`` ``party`` encrypts the randomness-1 ciphertext."""
    encrypt_batch = party.encrypt_batch
    public = party.public_key

    def encrypt(values):
        fresh = encrypt_batch(list(values))
        return [Ciphertext(public, 1) if value == 0 else cipher
                for value, cipher in zip(values, fresh)]

    party.encrypt_batch = encrypt


def trivial_dgk_zeros(party) -> None:
    """Make every DGK ``[0]`` ``party`` encrypts the re-randomizer-free 1."""
    encrypt_batch = party.dgk_encrypt_batch

    def encrypt(values):
        fresh = encrypt_batch(list(values))
        return [1 if value == 0 else cipher
                for value, cipher in zip(values, fresh)]

    party.dgk_encrypt_batch = encrypt


# -- the integer comparison's entries -------------------------------------------
def comparison_transcript(setting, pairs, bit_length):
    """Run SMIN on ``pairs`` and return the minimums and, per pair, C2's
    ``z`` bit encryptions (its own DGK values, MSB first) and the ``L``
    entries it zero-tested."""
    public = setting.public_key
    minimums = SecureMinimum(setting).run_batch(
        [(public.encrypt(u), public.encrypt(v)) for u, v in pairs],
        bit_length)
    transcript = setting.channel.transcript
    bits = [row for message in transcript
            if message.tag == "SMIN.batch_difference_bits"
            for row in message.payload]
    entries = [row[:bit_length] for message in transcript
               if message.tag == "SMIN.batch_comparisons"
               for row in message.payload]
    return minimums, list(zip(bits, entries))


def verified_mask_guesses(holder, bits, entries, bit_length):
    """Every ``(rhat, s)`` the entries' readings verify.

    A guess gives each marker ``[c_i]`` as a public function of C2's own
    bit encryptions — ``[z_i] * g^(s - rhat_i)`` times the weights
    ``[z_j]^(+-3) * g^(3 rhat_j)`` of the bits above — hence ``r'_i = m /
    c_i mod u`` for an entry of plaintext ``m`` and the reading
    ``[c_i]^(r'_i) * g^(-m)`` it predicts.  The entries are permuted, so
    an entry may sit at any position; a zero entry predicts nothing.
    """
    public = holder.public
    n, u = public.n, public.u
    received = [(value, holder.plaintext(value)) for value in entries]
    verified = []
    for rhat in range(1 << bit_length):
        r_bits = int_to_bits(rhat, bit_length)
        for sign in (1, -1):
            markers, above = [], 1
            for z_bit, r_bit in zip(bits[1:], r_bits):
                markers.append(z_bit * above * public.g_power(sign - r_bit)
                               % n)
                above = above * pow(z_bit, (3 - 6 * r_bit) % u, n) \
                    * public.g_power(3 * r_bit) % n
            plain = [holder.plaintext(marker) for marker in markers]
            if plain.count(0) != sum(m == 0 for _, m in received):
                continue
            if all(m == 0 or any(
                    c and holder.reading(pow(marker, m * pow(c, -1, u) % u,
                                             n), m)
                    == holder.reading(value, m)
                    for marker, c in zip(markers, plain))
                   for value, m in received):
                verified.append((rhat, sign))
    return verified


@on_every_backend
@pytest.mark.parametrize("trivial", [True, False],
                         ids=["zeros-trivial", "zeros-drawn"])
def test_comparison_entries_hide_the_mask(backend_name, trivial,
                                          monkeypatch):
    """With trivial re-randomizers C2 recovers each pair's ``rhat``; with
    the ones C1 draws, no guess verifies — not even the true one."""
    masks = record_sbd_masks(monkeypatch)
    keypair = cached_keypair()
    holder = DGKKeyHolder(keypair.private_key)
    bit_length = 4
    pairs = [(5, 12), (9, 9), (15, 0), (6, 7)]
    set_backend(backend_name)
    try:
        setting = TwoPartySetting.create(keypair, rng=Random(23))
        if trivial:
            trivial_dgk_zeros(setting.evaluator)
        minimums, rows = comparison_transcript(setting, pairs, bit_length)
        assert [keypair.private_key.decrypt(cipher) for cipher in minimums] \
            == [min(u, v) for u, v in pairs]
        for (bits, entries), mask in zip(rows, masks):
            guesses = verified_mask_guesses(holder, bits, entries, bit_length)
            if trivial:
                assert mask % (1 << bit_length) in {rhat for rhat, _ in guesses}
            else:
                assert guesses == []
    finally:
        set_backend(None)


# -- SkNN_m's zero search -------------------------------------------------------
def secure_query(keypair, values, query, k, trivial):
    """One SkNN_m query on a one-attribute table; returns C2's decrypted
    ``tau`` vectors with C1's ``E(d_min)`` and ``E(d_i)`` of each iteration
    (the catalogue), and the answer."""
    cloud = FederatedCloud.deploy(keypair, rng=Random(31))
    if trivial:
        trivial_zeros(cloud.c1)
    public = keypair.public_key
    table = Table.from_rows(Schema.uniform(1, max(values)),
                            [[value] for value in values])
    cloud.c1.host_database(EncryptedTable.encrypt_table(table, public,
                                                        rng=Random(32)))
    protocol = SkNNSecure(cloud, table.schema.distance_bit_length())
    selections = []
    run = protocol._sminn.run

    def recording(values, bit_length=None):
        minimum = run(values, bit_length)
        selections.append((minimum, list(values)))
        return minimum

    protocol._sminn.run = recording
    shares = protocol.run(public.encrypt_vector(query), k)
    taus = [message.payload[0] for message in cloud.channel.transcript
            if message.tag == "SkNNm.randomized_differences"]
    return shares, list(zip(taus, selections))


@on_every_backend
@pytest.mark.parametrize("trivial", [True, False],
                         ids=["zeros-trivial", "zeros-drawn"])
def test_zero_search_hides_the_differences(backend_name, trivial):
    """``tau_i = E(d_min - d_i)^(r_i) * E(0)``: guessing ``delta = d_min -
    d_i`` and the record gives ``r_i = tau / delta`` and the randomness
    ``(rho(d_min) / rho(d_i))^(r_i)``.  With trivial zeros the true guess
    verifies for every non-zero entry; with the zeros C1 draws, none does."""
    keypair = cached_keypair()
    holder = KeyHolder(keypair.private_key)
    n = holder.n
    set_backend(backend_name)
    try:
        _, rounds = secure_query(keypair, [2, 4, 1, 3, 4], [3], 2, trivial)
    finally:
        set_backend(None)
    assert len(rounds) == 2
    # |d_min - d_i| < 2^(l+1), l = 5 for values up to 4
    bound = 1 << 6
    for taus, (minimum, candidates) in rounds:
        minimum_rho = holder.randomness(minimum)
        truths = [holder.private.decrypt(minimum) - holder.private.decrypt(c)
                  for c in candidates]
        ratios = [minimum_rho * nt.modinv(holder.randomness(c), n) % n
                  for c in candidates]
        for tau in taus:
            value, reading = holder.residue(tau), holder.randomness(tau)
            if value == 0:
                continue
            verified = {
                (index, delta)
                for index, ratio in enumerate(ratios)
                for delta in range(-bound, bound) if delta
                if pow(ratio, holder.ratio_exponent(value, delta), n)
                == reading}
            if trivial:
                assert any(truths[index] == delta
                           for index, delta in verified)
            else:
                assert verified == set()


# -- the structural companion ---------------------------------------------------
class ScriptedObfuscators:
    """C1's engines for the companion: factor ``j`` (counted across the
    Paillier and the DGK engine, in draw order) is 1 except the one
    ``perturbed`` index, which is a fresh ``rho^N`` or ``h^rho``."""

    def __init__(self, public, perturbed: int | None, drawn: list[int],
                 fresh) -> None:
        self.key = self.public_key = public
        self.rng = Random(41)
        self.perturbed = perturbed
        self.drawn = drawn
        self.fresh = fresh

    def take_available(self, count: int) -> list[int]:
        factors = []
        for _ in range(count):
            index = self.drawn[0]
            factors.append(self.fresh(Random(index))
                           if index == self.perturbed else 1)
            self.drawn[0] += 1
        return factors

    def take_masks(self, count, kind="zn", sbd_upper=None, bits=None):
        lower, upper = mask_range(kind, self.key.n, sbd_upper, bits)
        masks = [self.rng.randrange(lower, upper) for _ in range(count)]
        return list(zip(masks, self.key.encrypt_batch(masks, pool=self)))


def decrypted_readings(keypair, perturbed, monkeypatch):
    """One small SkNN_m query with scripted C1 factors; returns the
    ``(tag, reading)`` of every ciphertext C2 decrypted (its randomness) or
    DGK value it tested or decrypted (``c * g^(-m)``), in order, and the
    number of factors C1 drew."""
    holder = KeyHolder(keypair.private_key)
    dgk_holder = DGKKeyHolder(keypair.private_key)
    cloud = FederatedCloud.deploy(keypair, rng=Random(51))
    public, dgk = keypair.public_key, cloud.c1.dgk_key
    drawn = [0]
    cloud.c1.engine = ScriptedObfuscators(
        public, perturbed, drawn,
        lambda rng: pow(rng.randrange(2, public.n), public.n,
                        public.nsquare))
    cloud.c1.dgk_engine = ScriptedObfuscators(
        dgk, perturbed, drawn,
        lambda rng: pow(dgk.h, rng.randrange(1, dgk.u), dgk.n))
    table = Table.from_rows(Schema.uniform(1, 3), [[3], [1], [2], [1]])
    cloud.c1.host_database(EncryptedTable.encrypt_table(
        table, keypair.public_key, rng=Random(52)))
    readings, current = [], []
    decrypt = cloud.c2.decrypt_residue_batch
    dispatch = P2StepDispatcher.dispatch_p2
    dgk_key = dgk_holder.key
    # the class's methods: the key object is shared with earlier runs
    dgk_tests = {name: getattr(type(dgk_key), name).__get__(dgk_key)
                 for name in ("is_zero_batch", "decrypt_batch")}

    def tagged(self, tag):
        current.append(tag)
        return dispatch(self, tag)

    def reading(ciphertexts):
        readings.extend((current[-1], holder.randomness(cipher))
                        for cipher in ciphertexts)
        return decrypt(ciphertexts)

    def dgk_reading(name):
        def read(values):
            readings.extend(
                (current[-1], dgk_holder.reading(value, plaintext))
                for value, plaintext in zip(
                    values, dgk_tests["decrypt_batch"](values)))
            return dgk_tests[name](values)
        return read

    monkeypatch.setattr(P2StepDispatcher, "dispatch_p2", tagged)
    for name in dgk_tests:
        monkeypatch.setattr(dgk_key, name, dgk_reading(name))
    cloud.c2.decrypt_residue_batch = reading
    SkNNSecure(cloud, table.schema.distance_bit_length()).run(
        keypair.public_key.encrypt_vector([2], rng=Random(53)), 2)
    return readings, drawn[0]


def test_every_tested_ciphertext_has_a_factor_of_its_own(monkeypatch):
    """Perturb C1's obfuscators and DGK re-randomizers one at a time: each
    ciphertext C2 decrypts or zero-tests, in every round of the query, must
    change with some factor that changes no other one."""
    keypair = cached_keypair()
    baseline, drawn = decrypted_readings(keypair, None, monkeypatch)
    tags = {tag for tag, _ in baseline}
    assert {"SSED.masked_differences", "SMIN.batch_masked_differences",
            "SMIN.batch_comparisons", "SkNNm.randomized_differences",
            "SkNN.masked_results"} <= tags
    dependants = []
    for index in range(drawn):
        readings, _ = decrypted_readings(keypair, index, monkeypatch)
        assert [tag for tag, _ in readings] == [tag for tag, _ in baseline]
        dependants.append({position for position, ((_, before), (_, after))
                           in enumerate(zip(baseline, readings))
                           if before != after})
    owned = {next(iter(changed)) for changed in dependants
             if len(changed) == 1}
    assert [baseline[position][0] for position in range(len(baseline))
            if position not in owned] == []
