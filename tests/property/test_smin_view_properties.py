"""What each cloud sees in SMIN's integer comparison (Section 4.3's views).

Per pair ``(x, y)`` — P1's coin ``F`` orders the operands — C2 decrypts
``z = x - y + 2^L + r``, statistically uniform exactly as SBD's masked
values are, then zero-tests the ``L`` DGK entries and decrypts the DGK
``[z_L xor c]``.  The simulation argument needs one pattern in the
entries: with ``zhat = z mod 2^L`` and ``rhat = r mod 2^L``, exactly one
entry decrypts to 0 mod ``u`` — the entry of the first bit where the two
differ — when that bit's ``z_t - rhat_t`` is ``-s``, and none otherwise.
C2's ``t`` is then ``[x >= y]`` for distinct values (uniform to C2 through
``F``) and ``[s = +1]`` on a tie, where ``delta' = 0`` — the tie leak of
ROADMAP item 2(b).

C2 never decrypts the candidates, and they are masked: neither decrypts to
``x`` or ``y``.  C1 sees what C2 sends back: the selected candidate must be
a fresh ciphertext, never one C1 sent, or C1 would read ``t`` off the wire.

The tests read the frames off the in-memory channel with P1's coins forced
and its shuffles held at the identity, so each decrypted entry sits at its
bit.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.backend import available_backends, set_backend
from repro.network.party import TwoPartySetting
from repro.protocols.encoding import int_to_bits
from repro.protocols.smin import SecureMinimum
from tests.property.conftest import cached_keypair

on_every_backend = pytest.mark.parametrize("backend_name",
                                           available_backends())


def smin_with_coins(pairs, bit_length: int, f_coins: list[bool],
                    s_coins: list[bool], seed: int):
    """Run one SMIN batch with P1's coins forced and its shuffles held.

    ``f_coins[i]`` keeps pair ``i`` as ``(x, y) = (u, v)`` (else swaps it),
    ``s_coins[i]`` makes its ``s = +1``.  Returns per pair a dict of the
    run's values: the ordered operands, P1's mask ``r``, C2's decrypted
    ``z``, entries and top bit (DGK plaintexts mod ``u``) and candidates, ``t``, the ciphertext values of
    the candidates sent and of the one returned, and the minimum.
    """
    keypair = cached_keypair()
    private = keypair.private_key
    setting = TwoPartySetting.create(keypair, rng=Random(seed))
    public = setting.public_key
    rng = setting.evaluator.rng
    forced = list(f_coins) + list(s_coins)
    draw = rng.getrandbits

    def coins_first(bits: int) -> int:
        # P1's one-bit draws are the F coins, then the s coins
        if bits == 1 and forced:
            return int(forced.pop(0))
        return draw(bits)

    rng.getrandbits = coins_first
    rng.shuffle = lambda sequence: None
    protocol = SecureMinimum(setting)
    masks = []
    take_masks = protocol.take_masks

    def recording(count, kind="zn", sbd_upper=None, bits=None):
        drawn = take_masks(count, kind, sbd_upper, bits)
        if kind == "sbd":
            masks.extend(r for r, _ in drawn)
        return drawn

    protocol.take_masks = recording
    minimums = protocol.run_batch(
        [(public.encrypt(u), public.encrypt(v)) for u, v in pairs],
        bit_length)
    assert forced == []

    def payloads(tag):
        return [message.payload for message in setting.channel.transcript
                if message.tag == tag]

    # [L, [E(z), ...]] per frame; one row per pair in the other two
    differences = [cipher for _, masked in payloads(
        "SMIN.batch_masked_differences") for cipher in masked]
    comparisons = [row for rows in payloads("SMIN.batch_comparisons")
                   for row in rows]
    selections = [row for rows in payloads("SMIN.batch_selected_minimums")
                  for row in rows]
    runs = []
    dgk = private.dgk()
    for index, ((u, v), keep) in enumerate(zip(pairs, f_coins)):
        row = comparisons[index]
        decrypted = dgk.decrypt_batch(row[:bit_length + 1])
        selected, enc_t = selections[index]
        runs.append({
            "x": u if keep else v, "y": v if keep else u,
            "r": masks[index],
            "z": private.decrypt_raw_residue(differences[index]),
            "entries": decrypted[:bit_length],
            "top": decrypted[bit_length],
            "candidates": [private.decrypt_raw_residue(cipher)
                           for cipher in row[bit_length + 1:]],
            "t": private.decrypt(enc_t),
            "sent": {cipher.value for cipher in row[bit_length + 1:]},
            "returned": selected.value,
            "minimum": private.decrypt(minimums[index]),
        })
    return runs


@on_every_backend
@settings(max_examples=20)
@given(data=st.data())
def test_c2_sees_the_first_difference_and_noise_elsewhere(backend_name,
                                                          data):
    bit_length = data.draw(st.integers(min_value=1, max_value=8))
    value = st.integers(min_value=0, max_value=(1 << bit_length) - 1)
    pairs = data.draw(st.lists(st.tuples(value, value), min_size=1,
                               max_size=4))
    if data.draw(st.booleans()):
        pairs[0] = (pairs[0][0], pairs[0][0])
    coins = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    f_coins, s_coins = data.draw(coins), data.draw(coins)
    set_backend(backend_name)
    try:
        runs = smin_with_coins(pairs, bit_length, f_coins, s_coins,
                               seed=data.draw(st.integers(0, 2**16)))
    finally:
        set_backend(None)

    top = 1 << bit_length
    for run, positive in zip(runs, s_coins):
        x, y, r = run["x"], run["y"], run["r"]
        assert run["minimum"] == min(x, y)
        assert run["z"] == x - y + top + r
        z_bits = int_to_bits(run["z"] % top, bit_length)
        r_bits = int_to_bits(r % top, bit_length)
        first = next((index for index in range(bit_length)
                      if z_bits[index] != r_bits[index]), None)
        sign = 1 if positive else -1
        expected_zero = (first if first is not None
                         and z_bits[first] - r_bits[first] == -sign
                         else None)
        assert [index for index, entry in enumerate(run["entries"])
                if entry == 0] == ([] if expected_zero is None
                                   else [expected_zero])
        delta = int(expected_zero is not None)
        assert run["top"] in (0, 1)
        assert run["t"] == run["top"] ^ delta
        if x == y:
            assert delta == 0 and run["t"] == int(positive)
        else:
            assert run["t"] == int(x >= y)


@on_every_backend
def test_the_candidates_are_masked(backend_name):
    """Differing and tied pairs alike: neither candidate decrypts under
    C2's key to its operand."""
    pairs = [(5, 3), (3, 5), (6, 6), (0, 0), (15, 0)]
    set_backend(backend_name)
    try:
        runs = smin_with_coins(pairs, 4, [True] * 5, [False] * 5, seed=17)
    finally:
        set_backend(None)
    for run in runs:
        assert run["minimum"] == min(run["x"], run["y"])
        assert not set(run["candidates"]) & {run["x"], run["y"]}


@on_every_backend
@pytest.mark.parametrize("f_coin", [True, False])
def test_the_selected_candidate_is_fresh(backend_name, f_coin):
    """Either coin, both values of ``t`` (one per pair): the candidate C2
    returns is never 1 or one of the candidates C1 sent."""
    set_backend(backend_name)
    try:
        runs = smin_with_coins([(5, 3), (3, 5)], 4, [f_coin] * 2,
                               [True] * 2, seed=9)
    finally:
        set_backend(None)
    assert [run["minimum"] for run in runs] == [3, 3]
    assert sorted(run["t"] for run in runs) == [0, 1]
    for run in runs:
        assert run["returned"] != 1
        assert run["returned"] not in run["sent"]
