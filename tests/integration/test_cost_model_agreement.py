"""Cross-validation of the analytic cost model against measured counters.

The calibrated projections used by the benchmark harness are only trustworthy
if the operation-count formulas match what the implementation actually does.
These tests run the real protocols with instrumented counters and compare
against :mod:`repro.analysis.cost_model` — exactly for the deterministic
protocols (SM, SSED), within a small tolerance for the randomized ones (SBD's
mask parity, SkNN_m's per-iteration branches).
"""

from __future__ import annotations

from random import Random

import pytest

from repro.analysis.cost_model import (
    OfflineOnlineCounts,
    sbd_counts,
    sknn_basic_counts,
    sknn_basic_split_counts,
    sknn_secure_counts,
    smin_counts,
    sm_counts,
    ssed_scan_counts,
    ssed_scan_split_counts,
)
from repro.core.cloud import FederatedCloud
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine
from repro.db.datasets import synthetic_uniform
from repro.protocols.base import PIPELINE_MIN_ITEMS
from repro.protocols.encoding import encrypt_bits
from repro.protocols.sbd import SecureBitDecomposition
from repro.protocols.smin import SecureMinimum
from repro.protocols.sm import SecureMultiplication
from repro.protocols.ssed import SecureSquaredEuclideanDistance


def totals(stats):
    """(encryptions, decryptions, exponentiations) from run statistics."""
    return (stats.total_encryptions, stats.total_decryptions,
            stats.total_exponentiations)


class TestSubProtocolCounts:
    def test_sm_exact(self, setting):
        protocol = SecureMultiplication(setting)
        result = protocol.run_instrumented(setting.public_key.encrypt(5),
                                           setting.public_key.encrypt(6))
        expected = sm_counts()
        assert totals(result.stats) == (expected.encryptions,
                                        expected.decryptions,
                                        expected.exponentiations)

    @pytest.mark.parametrize("dimensions", [1, 3, 6])
    def test_ssed_exact(self, setting, dimensions):
        protocol = SecureSquaredEuclideanDistance(setting)
        x = list(range(dimensions))
        y = list(range(1, dimensions + 1))
        result = protocol.run_instrumented(setting.public_key.encrypt_vector(x),
                                           setting.public_key.encrypt_vector(y))
        # run() is the single-record scan, not the textbook m-SM formula.
        expected = ssed_scan_counts(1, dimensions)
        assert totals(result.stats) == (expected.encryptions,
                                        expected.decryptions,
                                        expected.exponentiations)

    @pytest.mark.parametrize("dimensions,records", [(1, 4), (3, 5)])
    def test_ssed_scan_exact(self, setting, dimensions, records):
        """The batched scan must match its own model exactly (Section 4.4)."""
        protocol = SecureSquaredEuclideanDistance(setting)
        pk = setting.public_key
        query = pk.encrypt_vector(list(range(dimensions)))
        table = [pk.encrypt_vector([i + j for j in range(dimensions)])
                 for i in range(records)]
        setting.reset_counters()
        protocol.run_many(query, table)
        expected = ssed_scan_counts(records, dimensions)
        assert pk.counter.encryptions == expected.encryptions
        assert setting.decryptor.private_key.counter.decryptions == \
            expected.decryptions
        assert pk.counter.exponentiations == expected.exponentiations
        # One round, two half-scans in flight (both cases have at least
        # PIPELINE_MIN_ITEMS records): n rows of m masked differences out
        # and n square sums back, each direction in two frames.
        traffic = setting.channel.total_traffic()
        assert records >= PIPELINE_MIN_ITEMS and traffic.messages == 4
        assert traffic.ciphertexts == records * dimensions + records

    @pytest.mark.parametrize("bit_length", [4, 8])
    def test_sbd_within_tolerance(self, setting, bit_length):
        """SBD's cost depends on random mask parities: expected +- l/2."""
        protocol = SecureBitDecomposition(setting, bit_length)
        result = protocol.run_instrumented(setting.public_key.encrypt(3))
        expected = sbd_counts(bit_length)
        measured_enc, measured_dec, measured_exp = totals(result.stats)
        assert measured_dec == expected.decryptions
        assert abs(measured_enc - expected.encryptions) <= bit_length / 2 + 1
        assert abs(measured_exp - expected.exponentiations) <= bit_length / 2 + 1

    @pytest.mark.parametrize("bit_length", [4, 6])
    def test_smin_exact(self, setting, bit_length):
        protocol = SecureMinimum(setting)
        result = protocol.run_instrumented(
            encrypt_bits(setting.public_key, 3, bit_length),
            encrypt_bits(setting.public_key, 5, bit_length),
        )
        expected = smin_counts(bit_length)
        assert totals(result.stats) == (expected.encryptions,
                                        expected.decryptions,
                                        expected.exponentiations)


class TestQueryProtocolCounts:
    def deploy(self, table, keypair, seed):
        owner = DataOwner(table, keypair=keypair, rng=Random(seed))
        cloud = FederatedCloud.deploy(keypair, rng=Random(seed + 1))
        cloud.c1.host_database(owner.encrypt_database())
        client = QueryClient(keypair.public_key, table.dimensions,
                             rng=Random(seed + 2))
        return cloud, client

    def test_sknn_basic_counts_match_model(self, small_keypair):
        table = synthetic_uniform(n_records=10, dimensions=3, distance_bits=8,
                                  seed=5)
        cloud, client = self.deploy(table, small_keypair, seed=400)
        protocol = SkNNBasic(cloud)
        protocol.run_with_report(client.encrypt_query([1, 2, 3]), 2)
        stats = protocol.last_report.stats
        # The implementation runs the vectorized distance scan (query
        # negation hoisted across records), modeled by batched=True.
        expected = sknn_basic_counts(10, 3, 2, batched=True)
        assert stats.total_encryptions == expected.encryptions
        assert stats.total_decryptions == expected.decryptions
        assert stats.total_exponentiations == expected.exponentiations

    def test_sknn_basic_precomputed_counts_match_split_model(
            self, small_keypair):
        """Warm-pool SkNN_b: online counters match the split's online side
        and the engines' pooled takes match its offline side exactly."""
        n, m, k = 10, 3, 2
        table = synthetic_uniform(n_records=n, dimensions=m, distance_bits=8,
                                  seed=5)
        cloud, client = self.deploy(table, small_keypair, seed=402)
        # One engine per cloud, each with its own randomness (the model's
        # non-colluding split): C1's pays for the mask encryptions, C2's for
        # the square-sum re-encryptions.
        c1_engine = PrecomputeEngine(
            small_keypair.public_key, rng=Random(403),
            config=PrecomputeConfig.for_query_load(n, m, k, queries=1))
        c2_engine = PrecomputeEngine(
            small_keypair.public_key, rng=Random(408),
            config=PrecomputeConfig.for_decryptor_load(n, m, k, queries=1))
        c1_engine.warm()
        c2_engine.warm()
        cloud.attach_engine(c1_engine, c2_engine)
        try:
            encrypted_query = client.encrypt_query([1, 2, 3])
            protocol = SkNNBasic(cloud)
            protocol.run_with_report(encrypted_query, k)
            stats = protocol.last_report.stats
        finally:
            cloud.attach_engine(None)

        split = sknn_basic_split_counts(n, m, k)
        # Counter parity: every pooled take still counts as one logical
        # encryption, so total encryptions equal the offline-side model...
        assert stats.total_encryptions == split.offline.encryptions
        # ...while decryptions and exponentiations are the online residue.
        assert stats.total_decryptions == split.online.decryptions
        assert stats.total_exponentiations == split.online.exponentiations
        # The pools served every precomputable operation (no misses): the
        # two engines' offline ledgers cover all pooled takes of the query.
        pooled = c1_engine.pool_hit_total() + c2_engine.pool_hit_total()
        assert pooled == split.offline.encryptions
        assert c1_engine.obfuscators.misses == 0
        assert c2_engine.obfuscators.misses == 0
        # ...which is what the measured split reports from the same stats.
        measured = OfflineOnlineCounts.from_measurements(
            stats, c1_engine.stats(), c2_engine.stats())
        assert measured.online.encryptions == 0
        assert measured.online.decryptions == split.online.decryptions
        # The split model is self-consistent with the precomputed pipeline.
        combined = split.offline + split.online
        expected = sknn_basic_counts(n, m, k, batched=True)
        assert combined == expected

    def test_ssed_scan_precomputed_split_exact(self, small_keypair):
        """The scan under warm pools matches its own split model."""
        records, dimensions = 5, 3
        cloud, _ = self.deploy(
            synthetic_uniform(n_records=records, dimensions=dimensions,
                              distance_bits=8, seed=7),
            small_keypair, seed=404)
        pk = small_keypair.public_key
        engine = PrecomputeEngine(
            pk, rng=Random(405),
            config=PrecomputeConfig(obfuscators=128))
        engine.warm()
        cloud.attach_engine(engine)
        try:
            protocol = SecureSquaredEuclideanDistance(cloud.setting)
            query = pk.encrypt_vector(list(range(dimensions)))
            table = [pk.encrypt_vector([i + j for j in range(dimensions)])
                     for i in range(records)]
            cloud.setting.reset_counters()
            protocol.run_many(query, table)
        finally:
            cloud.attach_engine(None)
        split = ssed_scan_split_counts(records, dimensions)
        assert pk.counter.encryptions == split.offline.encryptions
        assert cloud.c2.private_key.counter.decryptions == \
            split.online.decryptions
        assert pk.counter.exponentiations == split.online.exponentiations
        # Same messages as the cold scan (two half-scans in flight): pools
        # never change the protocol.
        traffic = cloud.channel.total_traffic()
        assert records >= PIPELINE_MIN_ITEMS and traffic.messages == 4
        assert traffic.ciphertexts == records * dimensions + records

    def test_smin_engine_parity(self, small_keypair):
        """SMIN with pooled material keeps the exact Section 4.4 counts."""
        from repro.network.party import TwoPartySetting

        setting = TwoPartySetting.create(small_keypair, rng=Random(406))
        bit_length = 4
        engine = PrecomputeEngine(
            small_keypair.public_key, rng=Random(407),
            config=PrecomputeConfig(obfuscators=128))
        engine.warm()
        setting.attach_engine(engine)
        try:
            protocol = SecureMinimum(setting)
            result = protocol.run_instrumented(
                encrypt_bits(setting.public_key, 3, bit_length),
                encrypt_bits(setting.public_key, 5, bit_length),
            )
        finally:
            setting.attach_engine(None)
        expected = smin_counts(bit_length)
        assert totals(result.stats) == (expected.encryptions,
                                        expected.decryptions,
                                        expected.exponentiations)

    def test_sized_pools_cover_a_secure_query(self, small_keypair):
        """The pool formulas cover every encryption of a SkNN_m query on
        both parties: no obfuscator misses."""
        n, m, k, bits = 6, 2, 2, 7
        table = synthetic_uniform(n_records=n, dimensions=m,
                                  distance_bits=bits, seed=6)
        cloud, client = self.deploy(table, small_keypair, seed=409)
        engines = [
            PrecomputeEngine(small_keypair.public_key, rng=Random(410),
                             config=PrecomputeConfig.for_query_load(
                                 n, m, k, sbd_bit_length=bits)),
            PrecomputeEngine(small_keypair.public_key, rng=Random(411),
                             config=PrecomputeConfig.for_decryptor_load(
                                 n, m, k, sbd_bit_length=bits))]
        for engine in engines:
            engine.warm()
        cloud.attach_engine(*engines)
        try:
            SkNNSecure(cloud, distance_bits=bits).run(
                client.encrypt_query([1, 2]), k)
        finally:
            cloud.attach_engine(None)
        assert [engine.obfuscators.misses for engine in engines] == [0, 0]
        assert all(engine.pool_hit_total() > 0 for engine in engines)

    def test_sknn_secure_counts_close_to_model(self, small_keypair):
        """SkNN_m has randomized branches; the model must agree within 15%."""
        table = synthetic_uniform(n_records=6, dimensions=2, distance_bits=7,
                                  seed=6)
        cloud, client = self.deploy(table, small_keypair, seed=401)
        protocol = SkNNSecure(cloud, distance_bits=7)
        protocol.run_with_report(client.encrypt_query([1, 2]), 2,
                                 distance_bits=7)
        stats = protocol.last_report.stats
        expected = sknn_secure_counts(6, 2, 2, 7)
        measured_total = (stats.total_encryptions + stats.total_decryptions
                          + stats.total_exponentiations)
        assert measured_total == pytest.approx(expected.total, rel=0.15)
