"""Unit tests for the precomputation engine and its typed pools."""

from __future__ import annotations

import threading
from random import Random

import pytest

from repro.crypto.precompute import (
    MASK_NONZERO,
    MASK_SBD,
    MASK_ZN,
    PrecomputeConfig,
    PrecomputeEngine,
)
from repro.exceptions import ConfigurationError


def make_engine(public_key, *, seed=1, **overrides) -> PrecomputeEngine:
    defaults = dict(obfuscators=8, zeros=4, ones=4, power_bits=3,
                    powers_each=2, zn_masks=6, nonzero_masks=4,
                    sbd_bit_length=5, sbd_masks=4)
    defaults.update(overrides)
    return PrecomputeEngine(public_key, rng=Random(seed),
                            config=PrecomputeConfig(**defaults))


class TestRefill:
    def test_warm_fills_every_pool_to_target(self, public_key):
        engine = make_engine(public_key)
        engine.warm()
        remaining = engine.remaining()
        assert remaining["obfuscators"] == 8
        assert remaining["constant:0"] == 4
        assert remaining["constant:1"] == 4
        assert remaining["constant:4"] == 2  # power-of-two table
        assert remaining[f"mask:{MASK_ZN}"] == 6
        assert remaining[f"mask:{MASK_NONZERO}"] == 4
        assert remaining[f"mask:{MASK_SBD}"] == 4
        assert not engine.deficits()

    def test_refill_budget_caps_offline_work(self, public_key):
        engine = make_engine(public_key)
        produced = engine.refill(budget=5)
        assert produced == 5
        assert engine.offline.encryptions == 5
        # A second unbounded refill completes the targets.
        engine.warm()
        assert not engine.deficits()

    def test_offline_counter_tracks_one_powmod_per_item(self, public_key):
        engine = make_engine(public_key)
        total = engine.warm()
        assert engine.offline.encryptions == total
        assert engine.stats()["offline_powmods"] == total

    def test_sbd_masks_require_bit_length(self, public_key):
        with pytest.raises(ConfigurationError):
            PrecomputeEngine(public_key,
                             config=PrecomputeConfig(sbd_masks=4,
                                                     sbd_bit_length=None))


class TestTypedPools:
    def test_constants_decrypt_correctly(self, public_key, private_key):
        engine = make_engine(public_key)
        engine.warm()
        assert private_key.decrypt(engine.encrypt_constant(0)) == 0
        assert private_key.decrypt(engine.encrypt_constant(1)) == 1
        assert private_key.decrypt(engine.take_power_of_two(2)) == 4
        assert engine.hits["constant:0"] == 1
        assert engine.hits["constant:4"] == 1

    def test_mask_tuples_decrypt_to_their_value(self, public_key, private_key):
        engine = make_engine(public_key)
        engine.warm()
        for kind in (MASK_ZN, MASK_NONZERO, MASK_SBD):
            r, enc_r = engine.take_mask(kind)
            assert private_key.raw_decrypt(enc_r.value) == r

    def test_sbd_masks_respect_their_range(self, public_key):
        engine = make_engine(public_key)
        engine.warm()
        upper = public_key.n - (1 << 5)
        for _ in range(4):
            r, _ = engine.take_mask(MASK_SBD, sbd_upper=upper)
            assert 0 <= r < upper

    def test_sbd_range_mismatch_skips_pool(self, public_key):
        """A caller with a different ``l`` must not get wrong-range tuples."""
        engine = make_engine(public_key)
        engine.warm()
        other_upper = public_key.n - (1 << 3)
        r, _ = engine.take_mask(MASK_SBD, sbd_upper=other_upper)
        assert 0 <= r < other_upper
        assert engine.remaining()[f"mask:{MASK_SBD}"] == 4  # untouched
        assert engine.misses[f"mask:{MASK_SBD}"] == 1

    def test_take_counts_as_logical_encryption(self, public_key):
        engine = make_engine(public_key)
        engine.warm()
        before = public_key.counter.encryptions
        engine.encrypt_constant(1)
        engine.take_mask(MASK_ZN)
        assert public_key.counter.encryptions == before + 2


class TestExhaustionAndSingleUse:
    def test_drained_pools_fall_back_to_fresh_randomness(self, public_key,
                                                         private_key):
        engine = make_engine(public_key, zn_masks=2)
        engine.warm()
        tuples = engine.take_masks(5, MASK_ZN)
        # All five are valid encryptions of their mask...
        for r, enc_r in tuples:
            assert private_key.raw_decrypt(enc_r.value) == r
        # ...and no ciphertext (hence no obfuscation factor) repeats.
        assert len({enc_r.value for _, enc_r in tuples}) == 5
        assert engine.hits[f"mask:{MASK_ZN}"] == 2
        assert engine.misses[f"mask:{MASK_ZN}"] == 3

    def test_constants_are_single_use(self, public_key):
        engine = make_engine(public_key, zeros=3)
        engine.warm()
        zeros = [engine.encrypt_constant(0) for _ in range(6)]
        assert len({c.value for c in zeros}) == 6

    def test_refill_never_reissues_a_taken_tuple(self, public_key):
        engine = make_engine(public_key, zn_masks=3)
        engine.warm()
        first = {enc.value for _, enc in engine.take_masks(3, MASK_ZN)}
        engine.warm()  # refill back to target
        second = {enc.value for _, enc in engine.take_masks(3, MASK_ZN)}
        assert first.isdisjoint(second)

    def test_concurrent_take_and_refill(self, public_key):
        engine = make_engine(public_key, zn_masks=16, obfuscators=16)
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


class TestProducerThread:
    def test_background_producer_fills_pools(self, public_key):
        engine = make_engine(public_key, zn_masks=8, obfuscators=8)
        engine.start_producer(interval_seconds=0.001)
        try:
            for _ in range(200):
                if not engine.deficits():
                    break
                threading.Event().wait(0.01)
        finally:
            engine.stop_producer()
        assert not engine.deficits()

    def test_stop_producer_is_idempotent(self, public_key):
        engine = make_engine(public_key)
        engine.stop_producer()
        engine.start_producer()
        engine.stop_producer()
        engine.stop_producer()


class TestKeyAttachment:
    def test_config_for_query_load_covers_one_query(self, public_key):
        config = PrecomputeConfig.for_query_load(n_records=10, dimensions=3,
                                                 k=2, queries=1)
        # P1 consumes one mask tuple per scan attribute + delivery attribute.
        assert config.zn_masks == 10 * 3 + 2 * 3
        # The unconsumed powers-of-two table is not warmed by default.
        assert config.power_bits == 0

    def test_config_for_decryptor_load_covers_reencryptions(self, public_key):
        config = PrecomputeConfig.for_decryptor_load(
            n_records=10, dimensions=3, k=2, queries=1)
        # P2 re-encrypts one square sum per scanned record.
        assert config.obfuscators == 10
        assert config.zn_masks == 0  # masks are P1-side material


class TestPerPartySeparation:
    """Engines are per-party: P2 never draws from P1's pools (trust model)."""

    def test_decryptor_material_comes_from_decryptor_engine(
            self, small_keypair):
        from random import Random as _Random

        from repro.network.party import TwoPartySetting
        from repro.protocols.sbd import SecureBitDecomposition

        setting = TwoPartySetting.create(small_keypair, rng=_Random(40))
        c1_engine = make_engine(small_keypair.public_key, seed=41,
                                zeros=8, ones=8)
        c2_engine = make_engine(small_keypair.public_key, seed=42,
                                zeros=8, ones=8)
        c1_engine.warm()
        c2_engine.warm()
        setting.attach_engine(c1_engine, c2_engine)
        try:
            protocol = SecureBitDecomposition(setting, bit_length=5)
            bits = protocol.run(small_keypair.public_key.encrypt(13))
            from repro.protocols.encoding import decrypt_bits
            assert decrypt_bits(small_keypair.private_key, bits) == 13
            # P2's parity encryptions (E(0)/E(1)) were served by C2's own
            # engine, never by C1's constant pools.
            c2_constant_hits = sum(
                count for name, count in c2_engine.hits.items()
                if name.startswith("constant:"))
            c1_constant_hits = sum(
                count for name, count in c1_engine.hits.items()
                if name.startswith("constant:0"))
            assert c2_constant_hits == 5  # one parity bit per round
            assert c1_constant_hits == 0  # C1's E(0) pool untouched by P2
        finally:
            setting.attach_engine(None)

    def test_attach_engine_is_per_party_and_detaches_both(self,
                                                          small_keypair):
        from random import Random as _Random

        from repro.network.party import TwoPartySetting

        setting = TwoPartySetting.create(small_keypair, rng=_Random(43))
        c1_engine = make_engine(small_keypair.public_key, seed=44)
        c2_engine = make_engine(small_keypair.public_key, seed=45)
        setting.attach_engine(c1_engine, c2_engine)
        assert setting.evaluator.engine is c1_engine
        assert setting.decryptor.engine is c2_engine
        assert setting.engine is c1_engine
        setting.attach_engine(None)
        assert setting.evaluator.engine is None
        assert setting.decryptor.engine is None
