"""What each cloud sees in SMIN: Algorithm 3's views, Section 4.3.

Per pair, C2 decrypts the ``l`` entries of the L vector, ``1 + r'_i
(P_{i+1} + 1)`` for each bit.  Section 4.3's simulation argument needs
exactly one pattern there: with F true, one entry decrypts to 1 — the entry
of the first bit ``t`` where ``u`` and ``v`` differ, where F's maximum has
the 1 — and every other entry is a uniform value outside {0, 1}; with F
false, and for ``u = v``, no entry is in {0, 1}, so a tie looks like F
false.  C2's bit ``alpha`` is then the outcome of P1's secret choice F.

C2 only raises ``Gamma'_i`` to alpha, but it holds the key: decrypted, a
bare ``d_i`` in {-1, 0, 1} would show which bits differ, ``|u - v|`` and
every tie, so each ``Gamma_i`` carries a uniform mask ``rhat_i``.

C1 sees what C2 sends back: every ``M'_i`` must be a fresh ciphertext —
the printed ``Gamma'_i^alpha`` is ``1`` for ``alpha = 0`` and the very
``Gamma'_i`` C1 sent for ``alpha = 1``, which shows alpha on the wire.

The tests read C1's frames off the in-memory channel with the permutations
held at the identity, so each decrypted entry sits at its bit.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.backend import available_backends, set_backend
from repro.network.party import TwoPartySetting
from repro.protocols.encoding import decrypt_bits, encrypt_bits, int_to_bits
from repro.protocols.smin import SecureMinimum
from tests.property.conftest import cached_keypair

on_every_backend = pytest.mark.parametrize("backend_name",
                                           available_backends())


def smin_with_coins(pairs, bit_length: int, coins: list[bool], seed: int):
    """Run one SMIN batch with P1's coins forced and its shuffles held.

    Returns ``(minimums, l_vectors, alphas, gammas, m_primes)``: the
    decrypted outputs, each pair's decrypted L vector in entry order, C2's
    decrypted alphas, and the Gamma' / M' ciphertext values of each pair.
    """
    keypair = cached_keypair()
    private = keypair.private_key
    setting = TwoPartySetting.create(keypair, rng=Random(seed))
    encrypted = [(encrypt_bits(setting.public_key, u, bit_length),
                  encrypt_bits(setting.public_key, v, bit_length))
                 for u, v in pairs]
    rng = setting.evaluator.rng
    forced = list(coins)
    draw = rng.getrandbits

    def coins_first(bits: int) -> int:
        # SMIN's first P1 draws are its F coins, one bit per pair
        if forced:
            assert bits == 1
            return int(forced.pop(0))
        return draw(bits)

    rng.getrandbits = coins_first
    rng.shuffle = lambda sequence: None
    minimums = SecureMinimum(setting).run_batch(encrypted)
    assert forced == []

    transcript = setting.channel.transcript
    requests = [pair for message in transcript
                if message.tag == "SMIN.batch_gamma_and_l"
                for pair in message.payload]
    replies = [message.payload for message in transcript
               if message.tag == "SMIN.batch_masked_minimums"]
    l_vectors = [[private.decrypt_raw_residue(cipher) for cipher in entries]
                 for _, entries in requests]
    alphas = [private.decrypt_raw_residue(cipher)
              for _, enc_alphas in replies for cipher in enc_alphas]
    gammas = [[cipher.value for cipher in gamma] for gamma, _ in requests]
    m_primes = [[cipher.value for cipher in row]
                for m_rows, _ in replies for row in m_rows]
    return ([decrypt_bits(private, bits) for bits in minimums], l_vectors,
            alphas, gammas, m_primes)


@on_every_backend
@settings(max_examples=20)
@given(data=st.data())
def test_c2_sees_f_at_the_first_difference_and_noise_elsewhere(backend_name,
                                                                data):
    bit_length = data.draw(st.integers(min_value=1, max_value=8))
    value = st.integers(min_value=0, max_value=(1 << bit_length) - 1)
    pairs = data.draw(st.lists(st.tuples(value, value), min_size=1,
                               max_size=4))
    if data.draw(st.booleans()):
        pairs[0] = (pairs[0][0], pairs[0][0])
    coins = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                               max_size=len(pairs)))
    set_backend(backend_name)
    try:
        minimums, l_vectors, alphas, _, _ = smin_with_coins(
            pairs, bit_length, coins, seed=data.draw(st.integers(0, 2**16)))
    finally:
        set_backend(None)

    assert minimums == [min(u, v) for u, v in pairs]
    assert len(l_vectors) == len(alphas) == len(pairs)
    for (u, v), f_is_u_greater, l_vector, alpha in zip(pairs, coins,
                                                       l_vectors, alphas):
        assert len(l_vector) == bit_length
        u_bits, v_bits = int_to_bits(u, bit_length), int_to_bits(v, bit_length)
        f_true = int(u > v if f_is_u_greater else v > u)
        marked = [index for index, entry in enumerate(l_vector)
                  if entry in (0, 1)]
        if f_true:
            # F's maximum has the 1 at the first differing bit t
            first = next(index for index in range(bit_length)
                         if u_bits[index] != v_bits[index])
            assert marked == [first]
            assert l_vector[first] == 1
        else:
            # F false and u = v alike: nothing in {0, 1}
            assert marked == []
        assert alpha == f_true


@on_every_backend
@pytest.mark.parametrize("f_is_u_greater", [True, False])
def test_c2_decrypts_no_bit_difference_from_gamma(backend_name,
                                                  f_is_u_greater):
    """Differing, equal-bit and tied pairs alike: no Gamma' decrypts under
    C2's key to a bare ``d_i``, i.e. to 0, 1 or ``N - 1``."""
    pairs = [(5, 3), (3, 5), (6, 6), (0, 0), (15, 0)]
    set_backend(backend_name)
    try:
        minimums, _, _, gammas, _ = smin_with_coins(
            pairs, 4, [f_is_u_greater] * len(pairs), seed=17)
    finally:
        set_backend(None)
    assert minimums == [min(u, v) for u, v in pairs]
    private = cached_keypair().private_key
    decrypted = {private.raw_decrypt(value)
                 for gamma in gammas for value in gamma}
    assert sum(map(len, gammas)) == 4 * len(pairs)
    assert not decrypted & {0, 1, private.public_key.n - 1}


@on_every_backend
@pytest.mark.parametrize("f_is_u_greater", [True, False])
def test_no_m_prime_is_one_or_a_gamma_c1_sent(backend_name, f_is_u_greater):
    """Either coin, both values of alpha (one per pair): every M' is a
    fresh ciphertext."""
    set_backend(backend_name)
    try:
        minimums, _, alphas, gammas, m_primes = smin_with_coins(
            [(5, 3), (3, 5)], 4, [f_is_u_greater] * 2, seed=9)
    finally:
        set_backend(None)
    assert minimums == [3, 3]
    assert sorted(alphas) == [0, 1]
    sent = {value for gamma in gammas for value in gamma}
    for row in m_primes:
        assert len(row) == 4
        assert 1 not in row
        assert not set(row) & sent

