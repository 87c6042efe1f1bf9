"""Property tests for the precomputation engine's pool semantics.

The engine is only allowed to change *when* work happens, never *what* the
protocols compute.  These properties pin down the contract:

* any interleaving of takes against a pool of any size yields valid
  single-use encryptions — factors are never reused, even past exhaustion;
* pooled encryption is plaintext-equivalent to the plain path for arbitrary
  values, and counter parity holds exactly;
* mask tuples always decrypt to their stated mask, whatever mix of pooled
  and fallback tuples a drained pool serves.
"""

from __future__ import annotations

from random import Random

from hypothesis import given, strategies as st

from repro.crypto.precompute import (
    MASK_ZN,
    PrecomputeConfig,
    PrecomputeEngine,
)
from tests.property.conftest import cached_keypair

values_strategy = st.lists(
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    min_size=1, max_size=10,
)


def fresh_engine(obfuscators: int, zn_masks: int = 0,
                 seed: int = 5) -> PrecomputeEngine:
    keypair = cached_keypair()
    engine = PrecomputeEngine(
        keypair.public_key, rng=Random(seed),
        config=PrecomputeConfig(obfuscators=max(obfuscators, 1),
                                zeros=0, ones=0,
                                zn_masks=zn_masks))
    engine.warm()
    return engine


@given(values=values_strategy, pool_size=st.integers(min_value=1, max_value=6))
def test_pooled_encryption_roundtrips_past_exhaustion(values, pool_size):
    """Correct plaintexts and distinct ciphertexts, warm or drained."""
    keypair = cached_keypair()
    engine = fresh_engine(pool_size)
    ciphertexts = [engine.encrypt(v) for v in values]
    assert [keypair.private_key.decrypt(c) for c in ciphertexts] == values
    assert len({c.value for c in ciphertexts}) == len(values)


@given(values=values_strategy)
def test_pooled_batch_counter_parity(values):
    """encrypt_batch through a pool advances counters like the plain path."""
    keypair = cached_keypair()
    engine = fresh_engine(obfuscators=4)
    counter = keypair.public_key.counter
    before = counter.snapshot()
    ciphertexts = engine.encrypt_batch(values)
    after = counter.snapshot()
    assert after["encryptions"] - before["encryptions"] == len(values)
    assert after["exponentiations"] == before["exponentiations"]
    assert keypair.private_key.decrypt_batch(ciphertexts) == values


@given(takes=st.integers(min_value=1, max_value=12),
       pooled=st.integers(min_value=0, max_value=6))
def test_mask_tuples_decrypt_to_their_mask(takes, pooled):
    """Pooled and fallback tuples are indistinguishable to the caller."""
    keypair = cached_keypair()
    engine = fresh_engine(obfuscators=2, zn_masks=pooled)
    tuples = engine.take_masks(takes, MASK_ZN)
    for r, enc_r in tuples:
        assert 0 <= r < keypair.public_key.n
        assert keypair.private_key.raw_decrypt(enc_r.value) == r
    assert len({enc.value for _, enc in tuples}) == takes
    served = engine.hits.get(f"mask:{MASK_ZN}", 0)
    missed = engine.misses.get(f"mask:{MASK_ZN}", 0)
    assert served == min(takes, pooled)
    assert served + missed == takes
