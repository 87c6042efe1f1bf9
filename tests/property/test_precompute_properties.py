"""Property tests for the precomputation engine's pool semantics.

The engine is only allowed to change *when* work happens, never *what* the
protocols compute.  These properties pin down the contract:

* any interleaving of takes against a pool of any size yields valid
  single-use encryptions — factors are never reused, even past exhaustion;
* pooled encryption is plaintext-equivalent to the plain path for arbitrary
  values, and counter parity holds exactly;
* masks drawn by the protocol layer over an engine always decrypt to their
  stated value and lie in their kind's range, whatever mix of pooled and
  comb obfuscators a drained pool serves;
* under concurrent takers, refills and a save/load round trip every factor
  that leaves the pool leaves it exactly once.
"""

from __future__ import annotations

import sys
import threading
from random import Random

from hypothesis import given, settings, strategies as st

from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine
from repro.network.party import TwoPartySetting
from repro.protocols.base import (
    MASK_SBD,
    MASK_SHORT,
    MASK_SLOT,
    MASK_ZN,
    TwoPartyProtocol,
    mask_range,
)
from tests.property.conftest import cached_keypair

values_strategy = st.lists(
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    min_size=1, max_size=10,
)


def fresh_engine(obfuscators: int, seed: int = 5) -> PrecomputeEngine:
    keypair = cached_keypair()
    engine = PrecomputeEngine(
        keypair.public_key, rng=Random(seed),
        config=PrecomputeConfig(obfuscators=obfuscators))
    engine.warm()
    return engine


def masking_protocol(engine: PrecomputeEngine,
                     seed: int = 6) -> TwoPartyProtocol:
    """A protocol whose P1 draws masks over ``engine``."""
    setting = TwoPartySetting.create(cached_keypair(), rng=Random(seed))
    setting.attach_engine(engine)
    return TwoPartyProtocol(setting)


@given(values=values_strategy, pool_size=st.integers(min_value=1, max_value=6))
def test_pooled_encryption_roundtrips_past_exhaustion(values, pool_size):
    """Correct plaintexts and distinct ciphertexts, warm or drained."""
    keypair = cached_keypair()
    engine = fresh_engine(pool_size)
    ciphertexts = [c for v in values
                   for c in keypair.public_key.encrypt_batch([v], pool=engine)]
    assert [keypair.private_key.decrypt(c) for c in ciphertexts] == values
    assert len({c.value for c in ciphertexts}) == len(values)


@given(values=values_strategy)
def test_pooled_batch_counter_parity(values):
    """encrypt_batch through a pool advances counters like the plain path."""
    keypair = cached_keypair()
    engine = fresh_engine(obfuscators=4)
    counter = keypair.public_key.counter
    before = counter.snapshot()
    ciphertexts = keypair.public_key.encrypt_batch(values, pool=engine)
    after = counter.snapshot()
    assert after["encryptions"] - before["encryptions"] == len(values)
    assert after["exponentiations"] == before["exponentiations"]
    assert keypair.private_key.decrypt_batch(ciphertexts) == values


@given(takes=st.integers(min_value=1, max_value=12),
       pooled=st.integers(min_value=0, max_value=6),
       kind=st.sampled_from([MASK_ZN, MASK_SBD, MASK_SHORT, MASK_SLOT]))
def test_masks_decrypt_to_their_value_in_range(takes, pooled, kind):
    """Pool-backed and comb-backed masks are indistinguishable to the caller:
    cold (0 pooled), half-drained and warm draws all sample the kind's range."""
    keypair = cached_keypair()
    engine = fresh_engine(obfuscators=pooled)
    lower, upper = mask_range(kind, keypair.public_key.n, bits=9)
    tuples = masking_protocol(engine).take_masks(takes, kind, bits=9)
    for r, enc_r in tuples:
        assert lower <= r < upper
        assert keypair.private_key.raw_decrypt(enc_r.value) == r
    assert len({enc.value for _, enc in tuples}) == takes
    stats = engine.stats()
    assert stats["obfuscator_hits"] == min(takes, pooled)
    assert stats["obfuscator_hits"] + stats["obfuscator_misses"] == takes


@settings(max_examples=8, deadline=None)
@given(target=st.integers(min_value=4, max_value=24),
       takers=st.integers(min_value=1, max_value=4),
       per_take=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_every_factor_leaves_the_pool_exactly_once(target, takers, per_take,
                                                   seed, tmp_path_factory):
    """consumed ⊎ remaining ⊎ saved = produced, with no duplicate raw factor.

    ``E(0) = r^N``, so encrypting zeros exposes exactly the factors a draw
    consumed.  Takers (``encrypt_batch(pool=engine)`` and a protocol's
    ``take_masks`` over the engine), a refiller and
    one save -> load round trip into a second engine run concurrently; every
    factor produced must end up consumed once, still pooled, or on disk —
    and nowhere twice.
    """
    keypair = cached_keypair()
    engine = fresh_engine(target, seed=seed)
    heir = PrecomputeEngine(keypair.public_key, rng=Random(seed + 1),
                            config=PrecomputeConfig(obfuscators=target))
    cache = tmp_path_factory.mktemp("pools") / "pool.json"
    consumed: list[int] = []   # raw factors seen through E(0) draws
    masks_taken: list[int] = []  # ciphertexts of take_masks draws
    protocol = masking_protocol(engine, seed=seed + 2)
    lock = threading.Lock()
    stop = threading.Event()

    def taker() -> None:
        for _ in range(3):
            zeros = keypair.public_key.encrypt_batch([0] * per_take,
                                                     pool=engine)
            masks = protocol.take_masks(per_take, MASK_ZN)
            with lock:
                consumed.extend(c.value for c in zeros)
                masks_taken.extend(enc.value for _, enc in masks)

    def refiller() -> None:
        while not stop.is_set():
            engine.refill(budget=3)

    def saver() -> None:
        engine.save_pools(cache)
        heir.load_pools(cache)

    threads = [threading.Thread(target=taker) for _ in range(takers)]
    threads.append(threading.Thread(target=saver))
    refill_thread = threading.Thread(target=refiller)
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings inside the pool calls
    refill_thread.start()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        stop.set()
        refill_thread.join(timeout=60)
        sys.setswitchinterval(switch_interval)
    assert not any(t.is_alive() for t in threads + [refill_thread])

    assert not cache.exists()  # adopted by the heir, never replayable
    stats = engine.stats()
    remaining = engine.take_available(stats["remaining"]["obfuscators"])
    saved = heir.take_available(heir.remaining()["obfuscators"])
    # Every E(0) is a distinct factor (pooled or comb), no ciphertext
    # repeats, and nothing handed out is still pooled anywhere.
    assert len(set(consumed)) == len(consumed)
    assert len(set(masks_taken)) == len(masks_taken)
    leftover = remaining + saved
    assert len(set(leftover)) == len(leftover)
    assert set(consumed).isdisjoint(leftover)
    # Conservation: what the pool produced is what was drawn from it plus
    # what is left in memory plus what went through the cache file.
    produced = stats["offline_encryptions"]
    assert stats["obfuscator_hits"] + len(leftover) == produced
    draws = 2 * 3 * takers * per_take
    assert stats["obfuscator_hits"] + stats["obfuscator_misses"] == draws
