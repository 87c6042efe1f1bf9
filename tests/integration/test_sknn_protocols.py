"""Integration tests for SkNN_b and SkNN_m against the plaintext oracle."""

from __future__ import annotations

from random import Random

import pytest

from repro.core.cloud import FederatedCloud
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.core.system import SkNNSystem
from repro.crypto.backend import available_backends, set_backend
from repro.db.datasets import synthetic_uniform
from repro.db.knn import LinearScanKNN
from repro.db.schema import Schema
from repro.db.table import Table
from repro.exceptions import QueryError
from tests.integration.helpers import assert_valid_knn_answer


def build_deployment(table, keypair, seed: int):
    """Deploy a federated cloud hosting the encrypted table."""
    owner = DataOwner(table, keypair=keypair, rng=Random(seed))
    cloud = FederatedCloud.deploy(keypair, rng=Random(seed + 1))
    cloud.c1.host_database(owner.encrypt_database())
    client = QueryClient(keypair.public_key, table.dimensions, rng=Random(seed + 2))
    return cloud, client


@pytest.fixture(scope="module")
def small_table():
    return synthetic_uniform(n_records=12, dimensions=3, distance_bits=8, seed=21)


@pytest.fixture(scope="module")
def oracle(small_table):
    return LinearScanKNN(small_table)


class TestSkNNBasicCorrectness:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_plaintext_oracle(self, small_table, oracle, small_keypair, k):
        cloud, client = build_deployment(small_table, small_keypair, seed=50 + k)
        protocol = SkNNBasic(cloud)
        query = [3, 7, 2]
        shares = protocol.run(client.encrypt_query(query), k)
        neighbors = client.reconstruct(shares)
        expected = [r.record.values for r in oracle.query(query, k)]
        assert neighbors == expected

    def test_k_equals_n_returns_whole_table(self, small_table, small_keypair):
        cloud, client = build_deployment(small_table, small_keypair, seed=60)
        protocol = SkNNBasic(cloud)
        shares = protocol.run(client.encrypt_query([0, 0, 0]), len(small_table))
        neighbors = client.reconstruct(shares)
        assert sorted(neighbors) == sorted(small_table.row_values())

    def test_invalid_k_rejected(self, small_table, small_keypair):
        cloud, client = build_deployment(small_table, small_keypair, seed=61)
        protocol = SkNNBasic(cloud)
        encrypted_query = client.encrypt_query([0, 0, 0])
        with pytest.raises(QueryError):
            protocol.run(encrypted_query, 0)
        with pytest.raises(QueryError):
            protocol.run(encrypted_query, len(small_table) + 1)

    def test_wrong_query_arity_rejected(self, small_table, small_keypair,
                                        small_table_query_arity=2):
        cloud, _ = build_deployment(small_table, small_keypair, seed=62)
        protocol = SkNNBasic(cloud)
        bad_query = [small_keypair.public_key.encrypt(0)] * small_table_query_arity
        with pytest.raises(QueryError):
            protocol.run(bad_query, 1)

    def test_report_contains_operation_counts(self, small_table, small_keypair):
        cloud, client = build_deployment(small_table, small_keypair, seed=63)
        protocol = SkNNBasic(cloud)
        protocol.run_with_report(client.encrypt_query([1, 1, 1]), 2)
        report = protocol.last_report
        assert report is not None
        assert report.protocol == "SkNNb"
        assert report.n_records == len(small_table)
        assert report.stats.total_encryptions > 0
        assert report.stats.total_decryptions > 0
        assert report.wall_time_seconds > 0


class TestSkNNSecureCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_plaintext_oracle(self, small_table, oracle, small_keypair, k):
        cloud, client = build_deployment(small_table, small_keypair, seed=70 + k)
        protocol = SkNNSecure(cloud, distance_bits=8)
        query = [5, 1, 6]
        shares = protocol.run(client.encrypt_query(query), k)
        neighbors = client.reconstruct(shares)
        # Tie-tolerant comparison: SMIN_n breaks distance ties arbitrarily.
        assert_valid_knn_answer(small_table, query, k, neighbors)

    def test_handles_duplicate_records(self, small_keypair):
        """Tied distances must still yield k distinct records."""
        from repro.db.schema import Schema
        from repro.db.table import Table
        schema = Schema.from_names(["x", "y"], maximum=15)
        table = Table.from_rows(schema, [[5, 5], [5, 5], [9, 9], [0, 0]])
        cloud, client = build_deployment(table, small_keypair, seed=80)
        protocol = SkNNSecure(cloud, distance_bits=9)
        shares = protocol.run(client.encrypt_query([5, 5]), 2)
        neighbors = client.reconstruct(shares)
        assert neighbors == [(5, 5), (5, 5)]

    def test_query_equal_to_a_record(self, small_table, oracle, small_keypair):
        cloud, client = build_deployment(small_table, small_keypair, seed=81)
        protocol = SkNNSecure(cloud, distance_bits=8)
        query = list(small_table.records[0].values)
        shares = protocol.run(client.encrypt_query(query), 1)
        neighbors = client.reconstruct(shares)
        assert neighbors[0] == small_table.records[0].values

    def test_rejects_nonpositive_distance_bits(self, small_table, small_keypair):
        cloud, _ = build_deployment(small_table, small_keypair, seed=84)
        from repro.exceptions import ProtocolError
        with pytest.raises(ProtocolError):
            SkNNSecure(cloud, distance_bits=0)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_a_selected_record_never_ties_one_at_the_domain_maximum(
            self, backend_name, small_keypair):
        """l = 2 and (1, 1, 1) lies at distance 3 = 2**l - 1 from the query:
        the all-ones value the printed elimination gives a selected record,
        which then ties it and can be selected a second time."""
        table = Table.from_rows(Schema.uniform(3, 1), [[0, 0, 0], [1, 1, 1]])
        query = [0, 0, 0]
        set_backend(backend_name)
        try:
            for seed in range(20):
                cloud, client = build_deployment(table, small_keypair, seed)
                protocol = SkNNSecure(
                    cloud, distance_bits=table.schema.distance_bit_length())
                neighbors = client.reconstruct(
                    protocol.run(client.encrypt_query(query), 2))
                assert neighbors == [(0, 0, 0), (1, 1, 1)], seed
                assert_valid_knn_answer(table, query, 2, neighbors)
        finally:
            set_backend(None)

    def test_k_equal_to_n_with_a_record_at_the_domain_maximum(
            self, small_keypair):
        rows = [[1, 1, 1], [1, 0, 0], [0, 0, 0], [1, 1, 0]]
        table = Table.from_rows(Schema.uniform(3, 1), rows)
        query = [0, 0, 0]
        for seed in range(5):
            cloud, client = build_deployment(table, small_keypair, 90 + seed)
            protocol = SkNNSecure(cloud, distance_bits=2)
            neighbors = client.reconstruct(
                protocol.run(client.encrypt_query(query), len(rows)))
            assert neighbors == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
            assert_valid_knn_answer(table, query, len(rows), neighbors)

    @pytest.mark.parametrize("pools", ["off", "warm"])
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_one_attribute_odd_n_ties_at_both_ends_of_the_domain(
            self, backend_name, pools):
        """m = 1, odd n, duplicates tied at distance 0 and at 2**l - 1 = 1:
        SMIN compares 1-bit values, then 2-bit ones with the flag; k = 1
        and k = n, pools off and warm."""
        rows = [[0], [1], [1], [0], [1]]
        table = Table.from_rows(Schema.uniform(1, 1), rows)
        set_backend(backend_name)
        try:
            with SkNNSystem.setup(
                    table, key_size=128, mode="secure", k_default=len(rows),
                    rng=Random(7),
                    precompute=2 if pools == "warm" else 0) as system:
                assert system.distance_bits == 1
                for k in (1, len(rows)):
                    neighbors = system.query([0], k)
                    assert_valid_knn_answer(table, [0], k, neighbors)
        finally:
            set_backend(None)

    @pytest.mark.parametrize("mode", ["secure", "basic"])
    def test_a_query_beyond_the_schema_is_refused_by_sknn_m(self, mode):
        """``l = 4`` holds every distance of the schema, not the query
        ``[5]``'s 25 and 4: bit 4 of ``25 - 4 + 2**4`` is clear, so SMIN
        would call 25 the smaller and answer ``(0,)``.  SkNN_m refuses the
        query; so does SkNN_b, whose SSED masks are sized for the schema's
        attribute width, before anything is encrypted.  A query at the
        maximum is answered by both."""
        table = Table.from_rows(Schema.uniform(1, 3), [[0], [3]])
        with SkNNSystem.setup(table, key_size=128, mode=mode,
                              rng=Random(11)) as system:
            assert system.distance_bits == 4
            with pytest.raises(QueryError, match="outside the schema"):
                system.query([5], 1)
            assert system.query([3], 1) == [(3,)]

    def test_report_and_counters(self, small_table, small_keypair):
        cloud, client = build_deployment(small_table, small_keypair, seed=85)
        protocol = SkNNSecure(cloud, distance_bits=8)
        protocol.run_with_report(client.encrypt_query([1, 2, 3]), 1,
                                 distance_bits=8)
        report = protocol.last_report
        assert report is not None
        assert report.protocol == "SkNNm"
        assert report.distance_bits == 8
        assert report.stats.total_decryptions > 0
