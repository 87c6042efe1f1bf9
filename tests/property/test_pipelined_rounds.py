"""A pipelined round is the same round.

``TwoPartyProtocol.run_pipelined`` sends a batched round as two half-batches
in flight once it has ``PIPELINE_MIN_ITEMS`` items.  For every protocol
expressed through it, and on both bigint backends, the split round must be
indistinguishable from the one-chunk round (the same code with the constant
out of reach) in everything but the number of frames: the decrypted outputs,
every operation count of both parties, and the multiset of plaintexts C2
decrypts — its whole view — are equal.

Both runs of a comparison start from equal seeds with both parties' pools
warm, so no encryption draws on a party's rng and P1's masks, coins and
permutations are the same sequence however the batch is chunked; the
comparison is then exact, not statistical.
"""

from __future__ import annotations

from collections import Counter
from random import Random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.cost_model import (sbd_cost, sm_cost, smin_cost,
                                       ssed_scan_cost)
from repro.crypto.backend import available_backends, set_backend
from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine
from repro.network.party import TwoPartySetting
from repro.protocols import base
from repro.protocols.encoding import encrypt_bits
from repro.protocols.sbd import SecureBitDecomposition
from repro.protocols.sm import SecureMultiplication
from repro.protocols.smin import SecureMinimum
from repro.protocols.ssed import SecureSquaredEuclideanDistance
from tests.property.conftest import cached_keypair

BITS = 5          # SBD / SMIN bit length


def sm_case(setting, values):
    pairs = [(value, value + 3) for value in values]
    public = setting.public_key
    outputs = SecureMultiplication(setting).run_batch(
        [(public.encrypt(a), public.encrypt(b)) for a, b in pairs])
    return outputs, [a * b for a, b in pairs], sm_cost(len(values)).messages


def sm_square_case(setting, values):
    outputs = SecureMultiplication(setting).run_square_batch(
        setting.public_key.encrypt_vector(values))
    # the squaring round has SM's frames
    return (outputs, [value * value for value in values],
            sm_cost(len(values)).messages)


def ssed_case(setting, values):
    public = setting.public_key
    query = [7, 1]
    records = [[value, value % 5] for value in values]
    outputs = SecureSquaredEuclideanDistance(setting).run_many(
        public.encrypt_vector(query),
        [public.encrypt_vector(record) for record in records])
    return (outputs,
            [sum((a - b) ** 2 for a, b in zip(record, query))
             for record in records],
            ssed_scan_cost(len(values), len(query)).messages)


def sbd_case(setting, values):
    bit_vectors = SecureBitDecomposition(setting, BITS).run_batch(
        setting.public_key.encrypt_vector(values))
    return ([bit for bits in bit_vectors for bit in bits],
            [int(bit) for value in values
             for bit in format(value, f"0{BITS}b")],
            sbd_cost(BITS, len(values)).messages)


def smin_case(setting, values):
    public = setting.public_key
    pairs = [(value, (value * 7 + 3) % (1 << BITS)) for value in values]
    minimums = SecureMinimum(setting).run_batch(
        [(encrypt_bits(public, u, BITS), encrypt_bits(public, v, BITS))
         for u, v in pairs])
    return ([bit for bits in minimums for bit in bits],
            [int(bit) for u, v in pairs
             for bit in format(min(u, v), f"0{BITS}b")],
            smin_cost(BITS, len(values)).messages)


CASES = {"SM": sm_case, "SM-square": sm_square_case, "SSED": ssed_case,
         "SBD": sbd_case, "SMIN": smin_case}


def observe(case, values, seed):
    """One run on warm pools: everything a split must leave unchanged."""
    keypair = cached_keypair()
    public = keypair.public_key
    setting = TwoPartySetting.create(keypair, rng=Random(seed))
    engines = [PrecomputeEngine(key, rng=Random(seed + offset),
                                config=PrecomputeConfig(obfuscators=768))
               for offset, key in ((1, public), (2, keypair.private_key))]
    for engine in engines:
        engine.warm()
    setting.attach_engine(*engines)
    decrypted_by_c2: Counter = Counter()
    decrypt = setting.decryptor.decrypt_residue_batch

    def recording_decrypt(ciphertexts):
        residues = decrypt(ciphertexts)
        decrypted_by_c2.update(residues)
        return residues

    setting.decryptor.decrypt_residue_batch = recording_decrypt
    setting.reset_counters()
    outputs, expected, messages = case(setting, values)
    counts = (public.counter.snapshot(),
              keypair.private_key.counter.snapshot())
    assert all(engine.misses == 0 for engine in engines)
    plain = [keypair.private_key.decrypt(cipher) for cipher in outputs]
    assert plain == expected
    return {"outputs": plain, "counts": counts, "c2_view": decrypted_by_c2,
            "messages": (setting.channel.total_traffic().messages, messages)}


@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("case", sorted(CASES))
@given(size=st.integers(min_value=1, max_value=9),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_a_split_round_is_the_one_chunk_round(backend_name, case, size, seed):
    values = [Random(seed).randrange(1 << BITS) for _ in range(size)]
    set_backend(backend_name)
    try:
        split = observe(CASES[case], values, seed)
        with mock.patch.object(base, "PIPELINE_MIN_ITEMS", 10 ** 9):
            whole = observe(CASES[case], values, seed)
    finally:
        set_backend(None)
    # the cost model reads the constant, so each run is held to its own
    # entry: 2 or 4 frames per round when split, 2 when not.
    for run in (split, whole):
        sent, modelled = run.pop("messages")
        assert sent == modelled
    assert split == whole
