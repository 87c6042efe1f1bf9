"""Integration tests for the end-to-end SkNNSystem and the parallel variant."""

from __future__ import annotations

from random import Random

import pytest

from repro.core.parallel import ParallelSkNNBasic
from repro.core.system import SkNNSystem
from repro.db.datasets import synthetic_uniform
from repro.db.knn import LinearScanKNN
from repro.exceptions import ConfigurationError, QueryError


@pytest.fixture(scope="module")
def system_table():
    return synthetic_uniform(n_records=15, dimensions=3, distance_bits=9, seed=33)


@pytest.fixture(scope="module")
def system_oracle(system_table):
    return LinearScanKNN(system_table)


class TestSkNNSystem:
    def test_basic_mode_end_to_end(self, system_table, system_oracle):
        system = SkNNSystem.setup(system_table, key_size=128, mode="basic",
                                  rng=Random(1))
        query = [4, 4, 4]
        expected = [r.record.values for r in system_oracle.query(query, 3)]
        assert system.query(query, 3) == expected

    def test_secure_mode_end_to_end(self, system_table, system_oracle):
        system = SkNNSystem.setup(system_table, key_size=128, mode="secure",
                                  rng=Random(2))
        query = [7, 1, 2]
        expected = [r.record.values for r in system_oracle.query(query, 2)]
        assert system.query(query, 2) == expected

    @pytest.mark.parametrize("mode", ["basic", "parallel", "sharded"])
    def test_out_of_schema_basic_query_is_refused_before_encryption(
            self, system_table, mode, monkeypatch):
        """SkNN_b's SSED masks are sized for the schema's attribute width,
        so Bob refuses a wider query in every SkNN_b mode, as in SkNN_m,
        before he encrypts anything."""
        maximum = system_table.schema.attributes[0].maximum
        with SkNNSystem.setup(system_table, key_size=128, mode=mode,
                              workers=1, parallel_backend="serial",
                              rng=Random(3)) as system:
            encrypted = []
            monkeypatch.setattr(system.client, "encrypt_query",
                                encrypted.append)
            with pytest.raises(QueryError, match="outside the schema"):
                system.query([maximum + 1, 0, 0], 2)
            assert encrypted == []

    def test_query_with_report_populates_statistics(self, system_table):
        system = SkNNSystem.setup(system_table, key_size=128, mode="basic",
                                  rng=Random(3))
        answer = system.query_with_report([1, 1, 1], 2)
        assert len(answer.neighbors) == 2
        assert answer.report is not None
        assert answer.report.n_records == len(system_table)
        assert answer.client_encrypt_seconds > 0
        assert answer.client_reconstruct_seconds >= 0

    def test_client_cost_is_tiny_compared_to_cloud_cost(self, system_table):
        """The paper's point: Bob's cost is negligible next to the clouds'."""
        system = SkNNSystem.setup(system_table, key_size=128, mode="secure",
                                  rng=Random(4))
        answer = system.query_with_report([2, 2, 2], 1)
        client_cost = answer.client_encrypt_seconds + answer.client_reconstruct_seconds
        assert client_cost < answer.report.wall_time_seconds / 10

    def test_multiple_queries_reuse_deployment(self, system_table, system_oracle):
        system = SkNNSystem.setup(system_table, key_size=128, mode="basic",
                                  rng=Random(5))
        for query in ([0, 0, 0], [9, 9, 9], [3, 6, 1]):
            expected = [r.record.values for r in system_oracle.query(query, 2)]
            assert system.query(query, 2) == expected

    def test_distance_bits_default_derived_from_schema(self, system_table):
        system = SkNNSystem.setup(system_table, key_size=128, mode="secure",
                                  rng=Random(6))
        assert system.distance_bits == system_table.schema.distance_bit_length()

    def test_unknown_mode_rejected(self, system_table):
        with pytest.raises(ConfigurationError):
            SkNNSystem.setup(system_table, key_size=128, mode="bogus",
                             rng=Random(7))

    def test_key_size_exposed(self, system_table):
        system = SkNNSystem.setup(system_table, key_size=128, mode="basic",
                                  rng=Random(8))
        assert system.key_size == 128

    def test_parallel_mode_report_is_populated(self, system_table):
        """Unified reporting: parallel answers carry a real report too."""
        with SkNNSystem.setup(system_table, key_size=128, mode="parallel",
                              workers=2, parallel_backend="serial",
                              rng=Random(10)) as system:
            answer = system.query_with_report([2, 5, 1], 2)
        assert answer.report is not None
        assert answer.report.protocol == "SkNNb-parallel"
        assert answer.report.n_records == len(system_table)
        assert set(answer.report.phase_seconds) == {"distance", "merge",
                                                    "deliver"}
        assert all(seconds > 0
                   for seconds in answer.report.phase_seconds.values())
        assert answer.report.wall_time_seconds >= sum(
            answer.report.phase_seconds.values())
        assert answer.report.cost_breakdown
        assert answer.report.trace is not None


class TestParallelSkNN:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_backends_match_oracle(self, system_table, system_oracle, backend):
        system = SkNNSystem.setup(system_table, key_size=128, mode="parallel",
                                  workers=2, parallel_backend=backend,
                                  rng=Random(20))
        query = [5, 5, 5]
        expected = [r.record.values for r in system_oracle.query(query, 3)]
        assert system.query(query, 3) == expected

    def test_process_backend_matches_oracle(self, system_table, system_oracle):
        system = SkNNSystem.setup(system_table, key_size=128, mode="parallel",
                                  workers=2, parallel_backend="process",
                                  rng=Random(21))
        query = [8, 2, 3]
        expected = [r.record.values for r in system_oracle.query(query, 2)]
        assert system.query(query, 2) == expected

    def test_invalid_configuration_rejected(self, deployed_cloud):
        with pytest.raises(ConfigurationError):
            ParallelSkNNBasic(deployed_cloud, workers=0)
        with pytest.raises(ConfigurationError):
            ParallelSkNNBasic(deployed_cloud, backend="gpu")

    def test_parallel_and_serial_protocols_agree(self, deployed_cloud, tiny_table,
                                                 small_keypair):
        from repro.core.roles import QueryClient
        client = QueryClient(small_keypair.public_key, tiny_table.dimensions,
                             rng=Random(23))
        oracle = LinearScanKNN(tiny_table)
        query = [2, 2, 2]
        parallel = ParallelSkNNBasic(deployed_cloud, workers=2, backend="serial")
        shares = parallel.run(client.encrypt_query(query), 2)
        neighbors = client.reconstruct(shares)
        assert neighbors == [r.record.values for r in oracle.query(query, 2)]

    def test_worker_pool_is_reused_across_queries(self, deployed_cloud,
                                                  small_keypair, tiny_table):
        """Pool churn fix: repeated queries run on the same executor."""
        from repro.core.roles import QueryClient
        client = QueryClient(small_keypair.public_key, tiny_table.dimensions,
                             rng=Random(24))
        with ParallelSkNNBasic(deployed_cloud, workers=2,
                               backend="thread") as parallel:
            parallel.run(client.encrypt_query([1, 1, 1]), 1)
            first_executor = parallel.pool._executor
            parallel.run(client.encrypt_query([3, 3, 3]), 1)
            assert parallel.pool._executor is first_executor
            assert first_executor is not None
        assert parallel.pool.closed

    def test_closed_pool_rejects_further_queries(self, deployed_cloud,
                                                 small_keypair, tiny_table):
        from repro.core.roles import QueryClient
        client = QueryClient(small_keypair.public_key, tiny_table.dimensions,
                             rng=Random(25))
        parallel = ParallelSkNNBasic(deployed_cloud, workers=2, backend="thread")
        parallel.close()
        with pytest.raises(ConfigurationError):
            parallel.run(client.encrypt_query([1, 1, 1]), 1)

    def test_shared_pool_is_not_closed_by_borrower(self, deployed_cloud):
        from repro.core.parallel import PersistentWorkerPool
        pool = PersistentWorkerPool(workers=2, backend="thread")
        borrower = ParallelSkNNBasic(deployed_cloud, pool=pool)
        borrower.close()
        assert not pool.closed
        pool.close()
        assert pool.closed

    def test_process_pool_collects_garbage_before_forking(self):
        """Workers are forks, so the driver's cyclic garbage would sit in
        every worker's resident set: it is collected before they start."""
        import gc
        import weakref
        from repro.core.parallel import PersistentWorkerPool

        class Node:
            pass

        node = Node()
        node.itself = node
        probe = weakref.ref(node)
        gc.disable()
        try:
            del node
            assert probe() is not None
            with PersistentWorkerPool(workers=2, backend="process") as pool:
                assert pool.map(abs, [-1, -2]) == [1, 2]
            assert probe() is None
        finally:
            gc.enable()
