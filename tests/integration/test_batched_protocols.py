"""Equivalence of the batched protocol rounds with the scalar reference paths.

The vectorized kernel refactor (batched SM/SSED/SBD/SMIN rounds, chunked
worker scans) must be a pure performance change: every batched execution has
to produce the same functional outputs as the per-item scalar protocols, and
the full query protocols built on top of it must keep matching the plaintext
kNN oracle end-to-end.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.core.cloud import FederatedCloud
from repro.core.parallel import chunk_records, ssed_chunk_worker
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.db.datasets import synthetic_uniform
from repro.db.knn import LinearScanKNN
from repro.protocols.encoding import bits_to_int, encrypt_bits
from repro.protocols.sbd import SecureBitDecomposition
from repro.protocols.smin import SecureMinimum
from repro.protocols.sm import SecureMultiplication
from repro.protocols.ssed import SecureSquaredEuclideanDistance


class TestBatchedSubProtocols:
    def test_sm_batch_matches_scalar_outputs(self, setting):
        protocol = SecureMultiplication(setting)
        public = setting.public_key
        operands = [(3, 4), (-7, 2), (0, 99), (250, 250), (-5, -6)]
        pairs = [(public.encrypt(a), public.encrypt(b)) for a, b in operands]
        batch = protocol.run_batch(pairs)
        scalar = [protocol.run(a, b) for a, b in pairs]
        decrypt = setting.decryptor.decrypt_signed
        assert [decrypt(c) for c in batch] == [decrypt(c) for c in scalar]
        assert [decrypt(c) for c in batch] == [a * b for a, b in operands]

    def test_sm_batch_empty_input(self, setting):
        assert SecureMultiplication(setting).run_batch([]) == []

    def test_ssed_run_many_matches_scalar_runs(self, setting):
        protocol = SecureSquaredEuclideanDistance(setting)
        public = setting.public_key
        query = [1, 5, 2]
        records = [[4, 5, 6], [1, 5, 2], [0, 0, 0], [7, 1, 3]]
        enc_query = public.encrypt_vector(query)
        enc_records = [public.encrypt_vector(r) for r in records]
        batch = protocol.run_many(enc_query, enc_records)
        scalar = [protocol.run(enc_query, enc_record)
                  for enc_record in enc_records]
        decrypt = setting.decryptor.decrypt_signed
        assert [decrypt(c) for c in batch] == [decrypt(c) for c in scalar]
        expected = [sum((a - b) ** 2 for a, b in zip(query, record))
                    for record in records]
        assert [decrypt(c) for c in batch] == expected

    def test_ssed_run_many_truncates_label_columns(self, setting):
        protocol = SecureSquaredEuclideanDistance(setting)
        public = setting.public_key
        enc_query = public.encrypt_vector([1, 2])
        enc_record = public.encrypt_vector([3, 4, 999])  # trailing label
        [total] = protocol.run_many(enc_query, [enc_record])
        assert setting.decryptor.decrypt_signed(total) == (1-3)**2 + (2-4)**2

    def test_sbd_batch_matches_scalar_runs(self, setting):
        protocol = SecureBitDecomposition(setting, bit_length=7)
        public = setting.public_key
        values = [0, 1, 63, 64, 127, 90]
        batch = protocol.run_batch([public.encrypt(v) for v in values])
        decrypt = setting.decryptor.decrypt_signed
        for value, enc_bits in zip(values, batch):
            bits = [decrypt(b) for b in enc_bits]
            assert bits_to_int(bits) == value

    def test_smin_batch_matches_scalar_runs(self, setting):
        protocol = SecureMinimum(setting)
        public = setting.public_key
        cases = [(5, 9), (9, 5), (7, 7), (0, 31), (16, 15), (31, 0)]
        pairs = [(public.encrypt(u), public.encrypt(v)) for u, v in cases]
        batch = protocol.run_batch(pairs, 5)
        decrypt = setting.decryptor.decrypt_signed
        for (u, v), enc_min in zip(cases, batch):
            assert decrypt(enc_min) == min(u, v)
            assert decrypt(protocol.run(public.encrypt(u), public.encrypt(v),
                                        5)) == min(u, v)

    def test_smin_batch_rejects_mixed_lengths(self, setting):
        protocol = SecureMinimum(setting)
        public = setting.public_key
        from repro.exceptions import ProtocolError
        with pytest.raises(ProtocolError):
            protocol.run_batch([
                (encrypt_bits(public, 1, 4), encrypt_bits(public, 2, 5)),
            ])


class TestChunkedWorkers:
    def test_chunk_kernel_matches_plaintext_oracle(self, small_keypair,
                                                   monkeypatch):
        """The chunk worker — SSED run by a worker-local setting — returns
        exactly the squared distances the plaintext linear scan computes,
        boundary values included, with and without a shipped pool slice;
        a slice's factors are consumed before the key's own kernel."""
        from repro.crypto.backend import get_backend
        from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine

        public = small_keypair.public_key
        private = small_keypair.private_key
        rng = Random(31)
        table = synthetic_uniform(n_records=5, dimensions=3, distance_bits=9,
                                  seed=30)
        top = table.schema.attributes[0].maximum
        queries = [[rng.randrange(0, top + 1) for _ in range(3)],
                   [0, top, 0]]
        enc_records = [[c.value for c in public.encrypt_vector(r.values,
                                                               rng=rng)]
                       for r in table]
        enc_queries = [[c.value for c in public.encrypt_vector(q, rng=rng)]
                       for q in queries]
        oracle = LinearScanKNN(table)
        expected = [[0] * len(queries) for _ in table]
        position = {record.record_id: index
                    for index, record in enumerate(table)}
        for query_index, query in enumerate(queries):
            for neighbor in oracle.query(query, len(table)):
                expected[position[neighbor.record_id]][query_index] = \
                    neighbor.squared_distance

        worker_engines = []
        adopt = PrecomputeEngine.adopt

        def recording_adopt(engine, factors):
            worker_engines.append(engine)
            return adopt(engine, factors)

        monkeypatch.setattr(PrecomputeEngine, "adopt", recording_adopt)
        # one mask per (record, attribute) and one square sum per record,
        # per query
        encryptions = len(table) * (3 + 1) * len(queries)
        for slice_size in (0, 7, encryptions + 5):
            source = PrecomputeEngine(
                public, rng=Random(79),
                config=PrecomputeConfig(obfuscators=slice_size))
            source.warm()
            pool_slice = source.take_available(slice_size) or None
            worker_engines.clear()
            start, chunk = ssed_chunk_worker(
                (4, enc_records, enc_queries, public.n, private.p, private.q,
                 77, get_backend().name, pool_slice,
                 table.schema.attribute_bit_length()))
            assert start == 4
            assert chunk == expected
            [worker] = worker_engines
            assert worker.hits == min(slice_size, encryptions)

    def test_chunk_records_partitioning(self):
        assert chunk_records(0, 4) == []
        chunks = chunk_records(10, 2)
        assert chunks[0][0] == 0 and chunks[-1][1] == 10
        rebuilt = [i for start, stop in chunks for i in range(start, stop)]
        assert rebuilt == list(range(10))
        assert chunk_records(3, 8) == [(0, 1), (1, 2), (2, 3)]


class TestEndToEndOracleEquivalence:
    @pytest.fixture()
    def workload(self, medium_keypair):
        table = synthetic_uniform(n_records=12, dimensions=3,
                                  distance_bits=9, seed=321)
        owner = DataOwner(table, keypair=medium_keypair, rng=Random(322))
        cloud = FederatedCloud.deploy(medium_keypair, rng=Random(323))
        cloud.c1.host_database(owner.encrypt_database())
        client = QueryClient(medium_keypair.public_key, 3, rng=Random(324))
        return table, cloud, client

    def test_batched_sknn_basic_matches_oracle(self, workload):
        table, cloud, client = workload
        oracle = LinearScanKNN(table)
        protocol = SkNNBasic(cloud)
        for seed in range(3):
            query = [Random(seed).randrange(0, 16) for _ in range(3)]
            shares = protocol.run(client.encrypt_query(query), 4)
            neighbors = client.reconstruct(shares)
            expected = [r.record.values for r in oracle.query(query, 4)]
            assert [tuple(v) for v in expected] == neighbors

    def test_batched_sknn_secure_matches_oracle(self, workload):
        table, cloud, client = workload
        oracle = LinearScanKNN(table)
        protocol = SkNNSecure(cloud, distance_bits=9)
        query = [3, 7, 1]
        shares = protocol.run(client.encrypt_query(query), 3)
        neighbors = client.reconstruct(shares)
        expected_distances = sorted(
            r.squared_distance for r in oracle.query(query, 3))
        from repro.db.knn import squared_euclidean
        got_distances = sorted(squared_euclidean(record, query)
                               for record in neighbors)
        assert got_distances == expected_distances
