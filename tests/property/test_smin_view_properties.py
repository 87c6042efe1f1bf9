"""What C2 decrypts in SMIN: the L vector of Algorithm 3, Section 4.3's view.

Per pair, C2 decrypts the ``l`` entries of the L vector.  Section 4.3's
simulation argument needs exactly one pattern there: the entry at the first
bit where ``u`` and ``v`` differ decrypts to ``W_t`` (0 or 1), and every
other entry is a uniform value outside {0, 1}; for ``u = v`` no entry is
marked.  C2's bit ``alpha`` is then the outcome of P1's secret choice F.
The test reads C1's frames off the in-memory channel with the L
permutation held at the identity, so each decrypted entry sits at its bit.
"""

from __future__ import annotations

from random import Random

from hypothesis import given, settings, strategies as st

from repro.network.party import TwoPartySetting
from repro.protocols.encoding import decrypt_bits, encrypt_bits, int_to_bits
from repro.protocols.smin import SecureMinimum
from tests.property.conftest import cached_keypair


def smin_with_coins(pairs, bit_length: int, coins: list[bool], seed: int):
    """Run one SMIN batch with P1's coins forced and its shuffles held.

    Returns ``(minimums, l_vectors, alphas)``: the decrypted outputs, each
    pair's decrypted L vector in bit order and C2's decrypted alphas.
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
    l_vectors = [
        [private.decrypt_raw_residue(cipher) for cipher in permuted_l]
        for message in transcript if message.tag == "SMIN.batch_gamma_and_l"
        for _, permuted_l in message.payload]
    alphas = [
        private.decrypt_raw_residue(cipher)
        for message in transcript
        if message.tag == "SMIN.batch_masked_minimums"
        for cipher in message.payload[1]]
    return ([decrypt_bits(private, bits) for bits in minimums], l_vectors,
            alphas)


@settings(max_examples=30)
@given(data=st.data())
def test_c2_sees_w_at_the_first_difference_and_noise_elsewhere(data):
    bit_length = data.draw(st.integers(min_value=1, max_value=8))
    value = st.integers(min_value=0, max_value=(1 << bit_length) - 1)
    pairs = data.draw(st.lists(st.tuples(value, value), min_size=1,
                               max_size=4))
    if data.draw(st.booleans()):
        pairs[0] = (pairs[0][0], pairs[0][0])
    coins = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                               max_size=len(pairs)))
    minimums, l_vectors, alphas = smin_with_coins(
        pairs, bit_length, coins, seed=data.draw(st.integers(0, 2**16)))

    assert minimums == [min(u, v) for u, v in pairs]
    assert len(l_vectors) == len(alphas) == len(pairs)
    for (u, v), f_is_u_greater, l_vector, alpha in zip(pairs, coins,
                                                       l_vectors, alphas):
        u_bits, v_bits = int_to_bits(u, bit_length), int_to_bits(v, bit_length)
        maximum, other = (u_bits, v_bits) if f_is_u_greater \
            else (v_bits, u_bits)
        w_vector = [a * (1 - b) for a, b in zip(maximum, other)]
        marked = [index for index, entry in enumerate(l_vector)
                  if entry in (0, 1)]
        differing = [index for index in range(bit_length)
                     if u_bits[index] != v_bits[index]]
        if differing:
            first = differing[0]
            assert marked == [first]
            assert l_vector[first] == w_vector[first]
        else:
            assert marked == []
        assert alpha == int(u > v if f_is_u_greater else v > u)
