"""Unit tests for the precomputation engine: its one store of obfuscators."""

from __future__ import annotations

import dataclasses
import threading
from random import Random

import pytest

from repro.crypto.precompute import (
    MASK_SBD,
    MASK_ZN,
    PrecomputeConfig,
    PrecomputeEngine,
    mask_range,
)
from repro.exceptions import ConfigurationError

SBD_BITS = 5


def make_engine(public_key, *, seed=1, obfuscators=32) -> PrecomputeEngine:
    return PrecomputeEngine(public_key, rng=Random(seed),
                            config=PrecomputeConfig(obfuscators=obfuscators))


def sbd_upper(public_key) -> int:
    return public_key.n - (1 << SBD_BITS)


class TestRefill:
    def test_warm_fills_the_pool_to_target(self, public_key):
        engine = make_engine(public_key)
        engine.warm()
        assert engine.remaining() == {"obfuscators": 32}
        assert engine.deficit() == 0

    def test_refill_budget_caps_offline_work(self, public_key):
        engine = make_engine(public_key)
        produced = engine.refill(budget=5)
        assert produced == 5
        assert engine.offline_encryptions == 5
        # A second unbounded refill completes the target.
        engine.warm()
        assert engine.deficit() == 0

    def test_offline_counter_tracks_one_powmod_per_item(self, public_key):
        engine = make_engine(public_key)
        total = engine.warm()
        assert total == 32
        assert engine.offline_encryptions == total
        assert engine.stats()["offline_encryptions"] == total

    def test_refill_works_in_batches_up_to_the_target(self, public_key):
        engine = PrecomputeEngine(
            public_key, rng=Random(2),
            config=PrecomputeConfig(obfuscators=10, refill_batch=3))
        assert engine.refill(budget=7) == 7
        assert engine.warm() == 3
        assert engine.warm() == 0  # never past the target

    def test_config_is_one_target_and_one_granularity(self):
        assert [field.name for field in dataclasses.fields(PrecomputeConfig)] \
            == ["obfuscators", "refill_batch"]


class TestPooledDraws:
    def test_constants_decrypt_correctly(self, public_key, private_key):
        engine = make_engine(public_key)
        engine.warm()
        assert private_key.decrypt_batch(
            engine.encrypt_batch([0, 1, 4])) == [0, 1, 4]
        assert engine.stats()["obfuscator_hits"] == 3

    def test_mask_tuples_decrypt_to_their_value(self, public_key, private_key):
        engine = make_engine(public_key)
        engine.warm()
        for kind in (MASK_ZN, MASK_SBD):
            [(r, enc_r)] = engine.take_masks(1, kind,
                                             sbd_upper=sbd_upper(public_key))
            assert private_key.raw_decrypt(enc_r.value) == r

    @pytest.mark.parametrize("warmed", [0, 3, 16],
                             ids=["cold", "half-drained", "warm"])
    def test_masks_respect_their_range(self, public_key, warmed):
        """Range per kind, whatever share of the draw the pool covers."""
        engine = make_engine(public_key, obfuscators=max(warmed, 1))
        engine.refill(budget=warmed)
        upper = sbd_upper(public_key)
        for kind, (low, high) in {MASK_ZN: (0, public_key.n),
                                  MASK_SBD: (0, upper)}.items():
            assert mask_range(kind, public_key.n, upper) == (low, high)
            for r, _ in engine.take_masks(4, kind, sbd_upper=upper):
                assert low <= r < high

    def test_sbd_masks_need_their_upper_bound(self, public_key):
        with pytest.raises(ConfigurationError, match="sbd_upper"):
            make_engine(public_key).take_masks(1, MASK_SBD)
        with pytest.raises(ConfigurationError, match="unknown mask kind"):
            make_engine(public_key).take_masks(1, "gaussian")

    def test_take_counts_as_logical_encryption(self, public_key):
        engine = make_engine(public_key)
        engine.warm()
        before = public_key.counter.encryptions
        engine.encrypt_batch([1])
        engine.take_masks(1, MASK_ZN)
        assert public_key.counter.encryptions == before + 2


class TestExhaustionAndSingleUse:
    def test_drained_pool_falls_back_to_fresh_randomness(self, public_key,
                                                         private_key):
        engine = make_engine(public_key, obfuscators=2)
        engine.warm()
        tuples = engine.take_masks(5, MASK_ZN)
        # All five are valid encryptions of their mask...
        for r, enc_r in tuples:
            assert private_key.raw_decrypt(enc_r.value) == r
        # ...and no ciphertext (hence no obfuscation factor) repeats.
        assert len({enc_r.value for _, enc_r in tuples}) == 5
        stats = engine.stats()
        assert stats["obfuscator_hits"] == 2
        assert stats["obfuscator_misses"] == 3
        assert stats["hits"] == {} and stats["misses"] == {}

    def test_constants_are_single_use(self, public_key):
        engine = make_engine(public_key, obfuscators=3)
        engine.warm()
        zeros = engine.encrypt_batch([0] * 6)
        assert len({c.value for c in zeros}) == 6

    def test_refill_never_reissues_a_taken_factor(self, public_key):
        engine = make_engine(public_key, obfuscators=3)
        engine.warm()
        # E(0) = r^N: encrypting zeros exposes the raw pooled factors.
        first = {c.value for c in engine.encrypt_batch([0] * 3)}
        engine.warm()  # refill back to target
        second = {c.value for c in engine.encrypt_batch([0] * 3)}
        assert first.isdisjoint(second)

    def test_concurrent_take_and_refill(self, public_key):
        engine = make_engine(public_key, obfuscators=32)
        engine.warm()
        taken: list[int] = []
        lock = threading.Lock()
        stop = threading.Event()

        def taker():
            local = [enc.value for _, enc in engine.take_masks(12, MASK_ZN)]
            with lock:
                taken.extend(local)

        def refiller():
            while not stop.is_set():
                engine.refill(budget=8)

        refill_thread = threading.Thread(target=refiller)
        refill_thread.start()
        try:
            takers = [threading.Thread(target=taker) for _ in range(4)]
            for thread in takers:
                thread.start()
            for thread in takers:
                thread.join()
        finally:
            stop.set()
            refill_thread.join()
        assert len(taken) == 48
        assert len(set(taken)) == 48  # single-use under concurrency


class TestPerPartySeparation:
    """Engines are per-party: P2 never draws from P1's pool (trust model)."""

    def test_decryptor_material_comes_from_decryptor_engine(
            self, small_keypair):
        from repro.network.party import TwoPartySetting
        from repro.protocols.encoding import decrypt_bits
        from repro.protocols.sbd import SecureBitDecomposition

        setting = TwoPartySetting.create(small_keypair, rng=Random(40))
        c1_engine = make_engine(small_keypair.public_key, seed=41)
        c2_engine = make_engine(small_keypair.private_key, seed=42)
        c1_engine.warm()
        c2_engine.warm()
        setting.attach_engine(c1_engine, c2_engine)
        try:
            protocol = SecureBitDecomposition(setting, bit_length=5)
            bits = protocol.run(small_keypair.public_key.encrypt(13))
            assert decrypt_bits(small_keypair.private_key, bits) == 13
            # P2's parity encryptions were served by C2's own pool: one
            # per round, and nothing else left it.
            assert c2_engine.stats()["obfuscator_hits"] == 5
            assert c2_engine.remaining() == {"obfuscators": 32 - 5}
            # C1's pool paid for C1's masks and un-flip ones only: one mask
            # per round plus at most one E(1) per round.
            assert 5 <= c1_engine.stats()["obfuscator_hits"] <= 10
            assert c1_engine.stats()["obfuscator_misses"] == 0
            assert c2_engine.stats()["obfuscator_misses"] == 0
        finally:
            setting.attach_engine(None)

    def test_attach_engine_is_per_party_and_detaches_both(self,
                                                          small_keypair):
        from repro.network.party import TwoPartySetting

        setting = TwoPartySetting.create(small_keypair, rng=Random(43))
        c1_engine = make_engine(small_keypair.public_key, seed=44)
        c2_engine = make_engine(small_keypair.private_key, seed=45)
        setting.attach_engine(c1_engine, c2_engine)
        assert setting.evaluator.engine is c1_engine
        assert setting.decryptor.engine is c2_engine
        assert setting.engine is c1_engine
        setting.attach_engine(None)
        assert setting.evaluator.engine is None
        assert setting.decryptor.engine is None

    def test_masks_do_not_depend_on_the_keys_history(self):
        """Drawing a key's obfuscator base leaves the caller's rng where it
        was: an engine warmed on a fresh key and one on a key that already
        encrypted hand out the same masks."""
        from repro.crypto.paillier import generate_keypair

        fresh, used = (generate_keypair(128, Random(46)).public_key
                       for _ in range(2))
        used.encrypt_vector([5], rng=Random(47))
        masks = []
        for key in (fresh, used):
            engine = make_engine(key, seed=48)
            engine.warm()
            masks.append([r for r, _ in engine.take_masks(8)])
        assert masks[0] == masks[1]


class TestStore:
    """Single use, hit/miss accounting and the batch kernel's first tier."""

    def test_construction_computes_nothing(self, public_key):
        engine = make_engine(public_key, seed=2, obfuscators=10)
        assert engine.remaining() == {"obfuscators": 0}
        assert engine.refill(4) == 4
        assert engine.remaining() == {"obfuscators": 4}

    def test_pooled_encryptions_decrypt_correctly(self, public_key,
                                                  private_key):
        engine = make_engine(public_key, seed=3, obfuscators=16)
        engine.warm()
        values = [0, 1, 42, -7, public_key.n // 3]
        assert private_key.decrypt_batch(engine.encrypt_batch(values)) == values
        assert engine.hits == len(values)

    def test_encryptions_are_probabilistic(self, public_key):
        engine = make_engine(public_key, seed=9, obfuscators=8)
        engine.warm()
        [first] = engine.encrypt_batch([5])
        [second] = engine.encrypt_batch([5])
        assert first.value != second.value

    def test_factors_are_never_reused(self, public_key):
        engine = make_engine(public_key, seed=11, obfuscators=20)
        engine.warm()
        factors = [factor for _ in range(20)
                   for factor in engine.take_available(1)]
        assert len(set(factors)) == 20
        assert engine.remaining() == {"obfuscators": 0}

    def test_take_available_never_computes(self, public_key):
        engine = make_engine(public_key, seed=20, obfuscators=3)
        engine.warm()
        assert len(engine.take_available(5)) == 3
        stats = engine.stats()
        assert (stats["obfuscator_hits"], stats["obfuscator_misses"],
                stats["offline_encryptions"]) == (3, 2, 3)
        assert engine.take_available(2) == []

    def test_stats_snapshot(self, public_key):
        engine = make_engine(public_key, seed=13, obfuscators=3)
        engine.warm()
        engine.take_available(1)
        assert engine.stats() == {
            "remaining": {"obfuscators": 2},
            "hits": {},
            "misses": {},
            "obfuscator_hits": 1,
            "obfuscator_misses": 0,
            "offline_encryptions": 3,
        }

    def test_concurrent_takers_get_distinct_factors(self, public_key):
        engine = make_engine(public_key, seed=14, obfuscators=40)
        engine.warm()
        taken: list[int] = []
        lock = threading.Lock()

        def take_some():
            local = [factor for _ in range(10)
                     for factor in engine.take_available(1)]
            with lock:
                taken.extend(local)

        threads = [threading.Thread(target=take_some) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(taken)) == 40

    def test_batch_consumes_the_store_with_counter_parity(self, public_key,
                                                          private_key):
        engine = make_engine(public_key, seed=30, obfuscators=4)
        engine.warm()
        before = public_key.counter.encryptions
        ciphertexts = engine.encrypt_batch([1, 2, 3, 4, 5, 6])
        # Six logical encryptions, whatever the factor source: 4 pooled,
        # 2 from the key's kernel inline.
        assert public_key.counter.encryptions == before + 6
        assert (engine.hits, engine.misses) == (4, 2)
        assert private_key.decrypt_batch(ciphertexts) == [1, 2, 3, 4, 5, 6]

    def test_drained_store_batch_never_reuses_factors(self, public_key):
        engine = make_engine(public_key, seed=32, obfuscators=2)
        engine.warm()
        values = engine.encrypt_batch([9] * 6)
        assert len({c.value for c in values}) == 6
        assert (engine.hits, engine.misses) == (2, 4)

    def test_adopted_slice_serves_the_key_kernel(self, public_key,
                                                 private_key):
        source = make_engine(public_key, seed=33, obfuscators=3)
        source.warm()
        worker = PrecomputeEngine(public_key, rng=Random(34))
        assert worker.adopt(source.take_available(3)) == 3
        assert worker.offline_encryptions == 0
        ciphertexts = public_key.encrypt_batch([11], pool=worker)
        assert private_key.decrypt_batch(ciphertexts) == [11]
        assert worker.remaining() == {"obfuscators": 2}

    def test_private_key_engine_serves_the_public_key(self, small_keypair):
        engine = PrecomputeEngine(small_keypair.private_key, rng=Random(35),
                                  config=PrecomputeConfig(obfuscators=4))
        assert engine.public_key is small_keypair.public_key
        engine.warm()
        assert small_keypair.private_key.decrypt_batch(
            engine.encrypt_batch([3, -4])) == [3, -4]
        assert engine.hits == 2

    def test_encrypt_vector_routes_through_batch_kernel(self, public_key,
                                                        private_key):
        before = public_key.counter.snapshot()
        ciphertexts = public_key.encrypt_vector([1, -2, 300], rng=Random(34))
        after = public_key.counter.snapshot()
        assert after["encryptions"] == before["encryptions"] + 3
        assert after["exponentiations"] == before["exponentiations"]
        assert [private_key.decrypt(c) for c in ciphertexts] == [1, -2, 300]
