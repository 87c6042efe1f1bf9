"""Unit tests for the precomputed Paillier randomness pool."""

from __future__ import annotations

import threading
from random import Random

import pytest

from repro.crypto.randomness_pool import RandomnessPool
from repro.exceptions import ConfigurationError


class TestPrecomputation:
    def test_constructor_precomputes_to_size(self, public_key):
        pool = RandomnessPool(public_key, size=10, rng=Random(1))
        assert pool.remaining == 10
        assert pool.precomputed_total == 10

    def test_precompute_false_defers_work(self, public_key):
        pool = RandomnessPool(public_key, size=10, rng=Random(2),
                              precompute=False)
        assert pool.remaining == 0
        assert pool.refill(4) == 4
        assert pool.remaining == 4

    def test_invalid_size_rejected(self, public_key):
        with pytest.raises(ConfigurationError):
            RandomnessPool(public_key, size=0)


class TestEncryption:
    def test_pooled_encryptions_decrypt_correctly(self, public_key, private_key):
        pool = RandomnessPool(public_key, size=16, rng=Random(3))
        values = [0, 1, 42, -7, public_key.n // 3]
        assert private_key.decrypt_batch(pool.encrypt_batch(values)) == values
        assert pool.hits == len(values)

    def test_encryptions_are_probabilistic(self, public_key):
        pool = RandomnessPool(public_key, size=8, rng=Random(9))
        [first] = pool.encrypt_batch([5])
        [second] = pool.encrypt_batch([5])
        assert first.value != second.value

    def test_counter_incremented_like_normal_path(self, public_key):
        pool = RandomnessPool(public_key, size=4, rng=Random(10))
        before = public_key.counter.encryptions
        pool.encrypt_batch([1])
        pool.encrypt_batch([0])
        assert public_key.counter.encryptions == before + 2


class TestSingleUse:
    def test_factors_are_never_reused(self, public_key):
        pool = RandomnessPool(public_key, size=20, rng=Random(11))
        factors = [factor for _ in range(20)
                   for factor in pool.take_available(1)]
        assert len(set(factors)) == 20
        assert pool.remaining == 0

    def test_stats_snapshot(self, public_key):
        pool = RandomnessPool(public_key, size=3, rng=Random(13))
        pool.take_available(1)
        stats = pool.stats()
        assert stats == {"remaining": 2, "hits": 1, "misses": 0,
                         "precomputed_total": 3}

    def test_take_available_never_computes(self, public_key):
        pool = RandomnessPool(public_key, size=3, rng=Random(20))
        taken = pool.take_available(5)
        assert len(taken) == 3
        assert pool.remaining == 0
        assert pool.hits == 3
        assert pool.misses == 2
        assert pool.take_available(2) == []

    def test_concurrent_takers_get_distinct_factors(self, public_key):
        pool = RandomnessPool(public_key, size=40, rng=Random(14))
        taken: list[int] = []
        lock = threading.Lock()

        def take_some():
            local = [factor for _ in range(10)
                     for factor in pool.take_available(1)]
            with lock:
                taken.extend(local)

        threads = [threading.Thread(target=take_some) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(taken) == 40
        assert len(set(taken)) == 40


class TestBatchWiring:
    """The pool feeds the vectorized encryption kernel (PR 3 satellite)."""

    def test_encrypt_batch_consumes_pool_with_counter_parity(
            self, public_key, private_key):
        pool = RandomnessPool(public_key, size=4, rng=Random(30))
        before = public_key.counter.encryptions
        ciphertexts = pool.encrypt_batch([1, 2, 3, 4, 5, 6])
        # Parity: six logical encryptions, regardless of the factor source.
        assert public_key.counter.encryptions == before + 6
        # Pool hits/misses account for the split: 4 pooled, 2 comb-windowed.
        assert pool.hits == 4
        assert pool.misses == 2
        assert pool.remaining == 0
        assert private_key.decrypt_batch(ciphertexts) == [1, 2, 3, 4, 5, 6]

    def test_explicit_pool_argument_beats_windowed_path(self, public_key,
                                                        private_key):
        pool = RandomnessPool(public_key, size=2, rng=Random(31))
        ciphertexts = public_key.encrypt_batch([7, 8], pool=pool)
        assert pool.hits == 2
        assert private_key.decrypt_batch(ciphertexts) == [7, 8]

    def test_drained_pool_batch_never_reuses_factors(self, public_key):
        pool = RandomnessPool(public_key, size=2, rng=Random(32))
        values = pool.encrypt_batch([9] * 6)
        assert len({c.value for c in values}) == 6

    def test_from_factors_wraps_a_pool_slice(self, public_key, private_key):
        source = RandomnessPool(public_key, size=3, rng=Random(33))
        slice_pool = RandomnessPool.from_factors(public_key,
                                                 source.take_available(3))
        assert slice_pool.remaining == 3
        assert private_key.decrypt_batch(
            slice_pool.encrypt_batch([11])) == [11]
        assert slice_pool.remaining == 2

    def test_encrypt_vector_routes_through_batch_kernel(self, public_key,
                                                        private_key):
        before = public_key.counter.snapshot()
        ciphertexts = public_key.encrypt_vector([1, -2, 300], rng=Random(34))
        after = public_key.counter.snapshot()
        assert after["encryptions"] == before["encryptions"] + 3
        assert after["exponentiations"] == before["exponentiations"]
        assert [private_key.decrypt(c) for c in ciphertexts] == [1, -2, 300]
