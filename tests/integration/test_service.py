"""Integration tests for the query-serving subsystem (repro.service)."""

from __future__ import annotations

import threading
from random import Random

import pytest

from repro.analysis.cost_model import pool_targets
from repro.core.cloud import FederatedCloud
from repro.core.parallel import ParallelSkNNBasic, scan_tasks
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_basic import SkNNBasic, packing_slots
from repro.core.sknn_shard import shard_bounds
from repro.core.system import SkNNSystem
from repro.db.datasets import synthetic_uniform
from repro.db.encrypted_table import EncryptedTable
from repro.db.knn import LinearScanKNN
from repro.db.schema import Schema
from repro.db.table import Table
from repro.protocols.ssed import scan_packs
from repro.exceptions import ConfigurationError, QueryError
from repro.core.sknn_base import SkNNRunReport
from repro.service import scheduler as scheduler_module
from repro.service.scheduler import QueryServer
from repro.service.sharding import ShardedCloud
from tests.integration.helpers import assert_stats_are_row_sums


@pytest.fixture(scope="module")
def service_table():
    return synthetic_uniform(n_records=18, dimensions=3, distance_bits=9,
                             seed=55)


@pytest.fixture(scope="module")
def service_oracle(service_table):
    return LinearScanKNN(service_table)


def factors_per_query(table, k: int, key_size: int = 128, shards: int = 2,
                      workers: int = 1) -> int:
    """C1's encryptions in one query of the in-process plan: per chunk
    task one packed mask per pack and one square sum per record (the
    workers' slices), then ``k*m`` delivery masks."""
    m = table.dimensions
    ssed_slots, _ = packing_slots(key_size, table.schema)
    return sum(sum(scan_packs(stop - start, m, ssed_slots)) + stop - start
               for start, stop in scan_tasks(len(table), shards, workers)
               ) + k * m


def assert_one_engine_covered(engine, *, queries: int, table,
                              k: int) -> None:
    """Every factor the in-process scan and its deliveries encrypted with
    came from C1's one engine, and every one of them was its own refill."""
    stats = engine.stats()
    assert stats["obfuscator_misses"] == 0
    assert stats["obfuscator_hits"] == queries * factors_per_query(table, k)
    assert stats["offline_encryptions"] == (
        stats["obfuscator_hits"] + stats["remaining"]["obfuscators"])


def _deploy(keypair, table, seed):
    cloud = FederatedCloud.deploy(keypair, rng=Random(seed))
    cloud.c1.host_database(
        EncryptedTable.encrypt_table(table, keypair.public_key,
                                     rng=Random(seed + 1)))
    return cloud


#: The scan-plan conformance table.  n = 7, so neither 2 nor 3 shards divide
#: it; three identical records (2, 3, 5) and three distinct records at equal
#: distance from them (1, 4, 6, in an order no value sort produces) sit on
#: both sides of every slice boundary of the 2-shard ([0,4) [4,7)) and
#: 3-shard ([0,3) [3,5) [5,7)) plans.
_TWIN = [5, 5, 5]
CONFORMANCE_ROWS = [[0, 0, 9], [6, 5, 5], _TWIN, _TWIN, [4, 5, 5], _TWIN,
                    [5, 6, 5]]
CONFORMANCE_QUERIES = [_TWIN, [5, 5, 4], [0, 0, 0]]


class TestShardedCloud:
    @pytest.mark.parametrize("mode, shards", [
        pytest.param("basic", None, id="basic"),
        pytest.param("parallel", None, id="parallel"),
        pytest.param("sharded", 1, id="1"),
        pytest.param("sharded", 2, id="2"),
        pytest.param("sharded", 3, id="3"),
    ])
    def test_matches_oracle_across_shard_counts(self, small_keypair, mode,
                                                shards):
        """One conformance check for every in-process SkNN_b mode: serial
        SkNN_b, its parallel form and the plan over 1, 2 and 3 shards give
        the plaintext oracle's answer — index tie-break included — for
        k = 1 and k = n, one query at a time and three to a scan pass."""
        table = Table.from_rows(Schema.uniform(3, maximum=9),
                                CONFORMANCE_ROWS)
        oracle = LinearScanKNN(table)
        cloud = _deploy(small_keypair, table, 200)
        client = QueryClient(small_keypair.public_key, 3, rng=Random(9))
        if mode == "basic":
            plan = SkNNBasic(cloud)
        elif mode == "parallel":
            plan = ParallelSkNNBasic(cloud, workers=2, backend="serial")
        else:
            plan = ShardedCloud(cloud, shards=shards, workers=2,
                                backend="serial")
            assert [(shard.start, shard.start + len(shard))
                    for shard in plan.shards] == shard_bounds(len(table),
                                                              shards)

        def answer(queries, k):
            encrypted = [client.encrypt_query(query) for query in queries]
            return plan.answer_batch(encrypted, [k] * len(queries))

        batches = [[query] for query in CONFORMANCE_QUERIES]
        batches.append(CONFORMANCE_QUERIES)
        for k in (1, len(table)):
            for queries in batches:
                for query, shares in zip(queries, answer(queries, k)):
                    expected = [r.record.values
                                for r in oracle.query(query, k)]
                    assert client.reconstruct(shares) == expected

    def test_batch_answers_equal_individual_answers(self, small_keypair,
                                                    service_table,
                                                    service_oracle):
        cloud = _deploy(small_keypair, service_table, 400)
        client = QueryClient(small_keypair.public_key,
                             service_table.dimensions, rng=Random(11))
        queries = [[2, 2, 2], [8, 1, 0], [5, 5, 5], [0, 0, 0]]
        ks = [2, 1, 3, 2]
        with ShardedCloud(cloud, shards=2, workers=2,
                          backend="serial") as sharded:
            batch_shares = sharded.answer_batch(
                [client.encrypt_query(q) for q in queries], ks)
            for query, k, shares in zip(queries, ks, batch_shares):
                expected = [r.record.values
                            for r in service_oracle.query(query, k)]
                assert client.reconstruct(shares) == expected

    def test_partition_covers_table_without_overlap(self, small_keypair,
                                                    service_table):
        cloud = _deploy(small_keypair, service_table, 500)
        with ShardedCloud(cloud, shards=4, workers=1,
                          backend="serial") as sharded:
            covered = [index for shard in sharded.shards
                       for index in range(shard.start,
                                          shard.start + len(shard))]
            assert covered == list(range(len(service_table)))
            # 18 records over 4 shards: exactly the one slicer's bounds
            assert [(shard.start, shard.start + len(shard))
                    for shard in sharded.shards] == shard_bounds(18, 4) \
                == [(0, 5), (5, 10), (10, 14), (14, 18)]

    def test_invalid_shard_counts_rejected(self, small_keypair, service_table):
        cloud = _deploy(small_keypair, service_table, 600)
        with pytest.raises(ConfigurationError):
            ShardedCloud(cloud, shards=0)
        with pytest.raises(ConfigurationError):
            ShardedCloud(cloud, shards=len(service_table) + 1)

    def test_run_with_report_populates_phases(self, small_keypair,
                                              service_table):
        cloud = _deploy(small_keypair, service_table, 700)
        client = QueryClient(small_keypair.public_key,
                             service_table.dimensions, rng=Random(12))
        with ShardedCloud(cloud, shards=2, workers=1,
                          backend="serial") as sharded:
            sharded.run_with_report(client.encrypt_query([1, 1, 1]), 2)
            report = sharded.last_report
        assert report is not None
        assert report.protocol == "SkNNb-sharded"
        assert report.n_records == len(service_table)
        assert set(report.phase_seconds) == {"distance", "merge", "deliver"}
        assert report.stats.c2_decryptions > 0
        # The ledger and trace every SkNNProtocol report carries: the rows
        # (both parties run inline here, "other" bucket included) partition
        # the wall clock like the serial modes' do in test_profiling.py.
        assert {"scan", "select", "deliver"} <= {
            row["phase"] for row in report.cost_breakdown}
        assert sum(row["seconds"] for row in report.cost_breakdown) \
            == pytest.approx(report.wall_time_seconds, rel=0.01)
        assert report.trace is not None


class TestQueryServer:
    def test_eight_concurrent_sessions_get_isolated_correct_answers(
            self, small_keypair, service_table, service_oracle):
        """Acceptance: >= 8 concurrent queries over >= 2 shards, all exact."""
        cloud = _deploy(small_keypair, service_table, 800)
        sharded = ShardedCloud(cloud, shards=2, workers=2, backend="thread")
        server = QueryServer(sharded, batch_size=4, rng=Random(13))
        queries = [[i % 9, (2 * i) % 9, (3 * i) % 9] for i in range(8)]
        results: dict[int, list[tuple[int, ...]]] = {}

        def client_thread(index: int) -> None:
            session = server.open_session(f"bob-{index}")
            answer = session.query(queries[index], 2, timeout=120)
            results[index] = answer.neighbors

        with server:
            threads = [threading.Thread(target=client_thread, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert len(results) == 8
        for index, neighbors in results.items():
            expected = [r.record.values
                        for r in service_oracle.query(queries[index], 2)]
            assert neighbors == expected, f"session {index} got a wrong answer"
        assert server.stats.queries_served == 8

    def test_synchronous_flush_mode_without_background_thread(
            self, small_keypair, service_table, service_oracle):
        cloud = _deploy(small_keypair, service_table, 900)
        sharded = ShardedCloud(cloud, shards=3, workers=1, backend="serial")
        server = QueryServer(sharded, batch_size=3, rng=Random(14))
        session = server.open_session()
        pending = [session.submit([i, i, i], 2) for i in range(5)]
        # result() drives the scheduler itself when no thread is running.
        for i, handle in enumerate(pending):
            expected = [r.record.values
                        for r in service_oracle.query([i, i, i], 2)]
            assert handle.result(timeout=60).neighbors == expected
        assert server.stats.batches_served == 2  # 3 + 2
        server.close()

    def test_batched_answers_carry_populated_reports(self, small_keypair,
                                                     service_table):
        cloud = _deploy(small_keypair, service_table, 1000)
        sharded = ShardedCloud(cloud, shards=2, workers=1, backend="serial")
        server = QueryServer(sharded, batch_size=4, rng=Random(15))
        session = server.open_session("bob")
        pending = [session.submit([1, 2, 3], 2), session.submit([4, 5, 6], 1)]
        server.flush()
        for handle in pending:
            answer = handle.result(timeout=60)
            assert answer.report is not None
            assert answer.report.protocol == "SkNNb-sharded"
            assert {"encrypt", "queue_wait", "distance", "merge", "deliver",
                    "reconstruct"} == set(answer.report.phase_seconds)
            assert answer.client_encrypt_seconds > 0
        server.close()
        # One record per batch: the runner's report, copied per request
        # with the request's own k and phase split around shared objects.
        batch = sharded.last_report
        reports = [handle.result().report for handle in pending]
        assert [report.k for report in reports] == [2, 1] and batch.k == 2
        for report in reports:
            assert report.stats is batch.stats
            assert report.cost_breakdown is batch.cost_breakdown
            assert report.trace is batch.trace and batch.trace["spans"]
            assert SkNNRunReport.from_payload(report.as_payload()) == report
        assert set(batch.phase_seconds) == {"distance", "merge", "deliver"}
        assert sum(report.phase_seconds["distance"] for report in reports) \
            == pytest.approx(batch.phase_seconds["distance"])
        assert_stats_are_row_sums(batch)

    def test_served_queries_reach_the_query_metrics(self, small_keypair,
                                                    service_table):
        """A served batch counts like any other run: its queries in
        ``repro_queries_total``, its wall time and ledger rows in the
        ``repro_query_seconds`` / ``repro_phase_*`` families."""
        from repro.telemetry.metrics import get_registry, reset_registry

        cloud = _deploy(small_keypair, service_table, 1050)
        server = QueryServer(
            ShardedCloud(cloud, shards=2, workers=1, backend="serial"),
            batch_size=4, rng=Random(27))
        reset_registry()
        try:
            session = server.open_session("bob")
            pending = [session.submit([1, 2, 3], 2),
                       session.submit([4, 5, 6], 1)]
            server.flush()
            for handle in pending:
                assert handle.result(timeout=60).report.cost_breakdown
            snapshot = get_registry().snapshot()
            assert snapshot["repro_queries_total"]["values"] == {
                "SkNNb-sharded": 2}
            assert "SkNNb-sharded" in \
                snapshot["repro_query_seconds"]["values"]
            for family in ("repro_phase_seconds", "repro_phase_ops_total"):
                assert any(key.startswith("deliver,C2") for key
                           in snapshot[family]["values"]), family
        finally:
            server.close()
            reset_registry()

    def test_randomness_pools_keep_answers_exact(self, small_keypair,
                                                 service_table,
                                                 service_oracle):
        """Server-side engine masks plus Bob-side session pools together."""
        from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine

        cloud = _deploy(small_keypair, service_table, 1100)
        engine = PrecomputeEngine(
            small_keypair.public_key, rng=Random(16),
            config=PrecomputeConfig(obfuscators=pool_targets(
                len(service_table), service_table.dimensions, k=3,
                queries=1, worker_chunks=[len(service_table)])[0]))
        engine.warm()
        sharded = ShardedCloud(cloud, shards=2, workers=1, backend="serial",
                               precompute=engine)
        try:
            server = QueryServer(sharded, batch_size=4, rng=Random(17),
                                 session_pool_size=12)
            session = server.open_session("bob")
            answer = session.query([3, 6, 1], 3, timeout=60)
            expected = [r.record.values
                        for r in service_oracle.query([3, 6, 1], 3)]
            assert answer.neighbors == expected
            # delivery masking drew its obfuscators from the engine's pool...
            assert engine.stats()["obfuscator_hits"] >= 3 * len(expected[0])
            # ...and Bob's query encryption from his session engine
            assert session.client.engine.hits > 0
            server.close()
        finally:
            cloud.attach_engine(None)

    def test_precompute_engine_keeps_answers_exact_and_refills(
            self, small_keypair, service_table, service_oracle):
        """Warm engine: delivery masks and worker slices come from it,
        answers stay oracle-exact, and idle refills restore the target."""
        from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine

        cloud = _deploy(small_keypair, service_table, 1150)
        engine = PrecomputeEngine(
            small_keypair.public_key, rng=Random(18),
            config=PrecomputeConfig(obfuscators=pool_targets(
                len(service_table), service_table.dimensions, k=3,
                queries=2, worker_chunks=[len(service_table)])[0]))
        engine.warm()
        sharded = ShardedCloud(cloud, shards=2, workers=1, backend="serial",
                               precompute=engine)
        try:
            sharded.refill_precompute()
            assert engine.deficit() == 0
            server = QueryServer(sharded, batch_size=4, rng=Random(19))
            session = server.open_session("bob")
            answer = session.query([3, 6, 1], 3, timeout=60)
            expected = [r.record.values
                        for r in service_oracle.query([3, 6, 1], 3)]
            assert answer.neighbors == expected
            # The query drained the workers' slices and the delivery masks...
            assert engine.pool_hit_total() == factors_per_query(
                service_table, 3)
            # ...and an off-path refill tops the engine back up.
            assert sharded.refill_precompute() > 0
            assert engine.deficit() == 0
            server.close()
        finally:
            cloud.attach_engine(None)

    def test_served_batch_draws_every_factor_from_one_engine(
            self, service_table, service_oracle):
        """``serve(precompute=Q)``: C1's one engine is sized for what the
        chunk workers draw (their packs and square sums) plus the delivery
        masks,
        so a batch of two finds every factor pooled, and every factor the
        workers took was a refill of that engine."""
        k = 3
        system = SkNNSystem.setup(service_table, key_size=128, mode="basic",
                                  k_default=k, rng=Random(1310))
        server = system.serve(shards=2, workers=1, backend="serial",
                              batch_size=2, precompute=2)
        try:
            session = server.open_session("bob")
            queries = [[3, 6, 1], [7, 0, 2]]
            pending = [session.submit(query, k) for query in queries]
            server.flush()
            for query, waiting in zip(queries, pending):
                expected = [r.record.values
                            for r in service_oracle.query(query, k)]
                assert waiting.result(60).neighbors == expected
            assert_one_engine_covered(system.precompute_engine,
                                      queries=2, table=service_table, k=k)
        finally:
            server.close()

    def test_sharded_mode_draws_every_factor_from_one_engine(
            self, service_table, service_oracle):
        k = 3
        with SkNNSystem.setup(service_table, key_size=128, mode="sharded",
                              shards=2, workers=1, parallel_backend="serial",
                              k_default=k, rng=Random(1320),
                              precompute=2) as system:
            for query in ([3, 6, 1], [7, 0, 2]):
                expected = [r.record.values
                            for r in service_oracle.query(query, k)]
                assert system.query(query) == expected
            assert_one_engine_covered(system.precompute_engine,
                                      queries=2, table=service_table, k=k)

    def test_duplicate_session_names_rejected(self, small_keypair,
                                              service_table):
        cloud = _deploy(small_keypair, service_table, 1200)
        server = QueryServer(
            ShardedCloud(cloud, shards=2, workers=1, backend="serial"),
            rng=Random(18))
        server.open_session("bob")
        with pytest.raises(ConfigurationError):
            server.open_session("bob")
        server.close()

    def test_invalid_query_rejected_at_submission(self, small_keypair,
                                                  service_table):
        cloud = _deploy(small_keypair, service_table, 1300)
        server = QueryServer(
            ShardedCloud(cloud, shards=2, workers=1, backend="serial"),
            rng=Random(19))
        session = server.open_session("bob")
        with pytest.raises(QueryError):
            session.submit([1, 1, 1], len(service_table) + 1)
        # Nothing was enqueued, so no batch can be poisoned by the bad query.
        assert server.scheduler.pending == 0
        server.close()

    def test_out_of_schema_query_rejected_before_encryption(
            self, small_keypair, service_table):
        """A session encrypts nothing for a value outside the schema: the
        scan's SSED masks are sized for the schema's attribute width."""
        cloud = _deploy(small_keypair, service_table, 1350)
        server = QueryServer(
            ShardedCloud(cloud, shards=2, workers=1, backend="serial"),
            rng=Random(20))
        session = server.open_session("bob")
        encrypted = []
        session.client.encrypt_query = encrypted.append
        maximum = service_table.schema.attributes[0].maximum
        with pytest.raises(QueryError, match="outside the schema"):
            session.submit([maximum + 1, 0, 0], 2)
        assert encrypted == []
        assert server.scheduler.pending == 0
        server.close()

    def test_running_server_survives_a_bad_query(self, small_keypair,
                                                 service_table,
                                                 service_oracle):
        cloud = _deploy(small_keypair, service_table, 1400)
        server = QueryServer(
            ShardedCloud(cloud, shards=2, workers=1, backend="serial"),
            batch_size=2, rng=Random(26))
        with server:
            session = server.open_session("bob")
            with pytest.raises(QueryError):
                session.query([9, 9], 2, timeout=60)  # wrong arity
            # The serving thread is still alive and answers the next query.
            answer = session.query([4, 4, 4], 2, timeout=60)
            assert server.running
        expected = [r.record.values for r in service_oracle.query([4, 4, 4], 2)]
        assert answer.neighbors == expected


class _FillWaitRecorder(threading.Condition):
    """The scheduler's ``not_empty`` condition, noting when the serving
    thread waits while a query is queued: it holds a partial batch open."""

    def __init__(self, scheduler) -> None:
        super().__init__(scheduler._lock)
        self._scheduler = scheduler
        self.filling = threading.Event()

    def wait(self, timeout=None):
        if self._scheduler.pending:
            self.filling.set()
        return super().wait(timeout)


class TestBatchDispatch:
    """The serving thread dispatches a batch as soon as it can fill —
    ``min(batch_size, open sessions)`` queries queued — or the server
    stops.  ``BATCH_WINDOW_SECONDS`` is patched to an hour, so a server
    that waited out the window would never answer; the timeouts below only
    bound a hang."""

    @pytest.fixture()
    def served(self, small_keypair, service_table, monkeypatch):
        monkeypatch.setattr(scheduler_module, "BATCH_WINDOW_SECONDS", 3600.0)
        cloud = _deploy(small_keypair, service_table, 1500)
        server = QueryServer(
            ShardedCloud(cloud, shards=2, workers=1, backend="serial"),
            batch_size=4, rng=Random(27))
        recorder = _FillWaitRecorder(server.scheduler)
        server.scheduler.not_empty = recorder
        yield server, recorder
        server.close()

    @staticmethod
    def expected(service_oracle, query):
        return [r.record.values for r in service_oracle.query(query, 2)]

    def test_two_sessions_fill_one_batch_without_waiting_out_the_window(
            self, served, service_oracle):
        server, recorder = served
        alice, bob = server.open_session("alice"), server.open_session("bob")
        server.start()
        first = alice.submit([1, 2, 3], 2)
        assert recorder.filling.wait(timeout=60)
        assert not first.done()  # held open: bob may still join the batch
        second = bob.submit([4, 5, 6], 2)
        assert first.result(timeout=60).neighbors == self.expected(
            service_oracle, [1, 2, 3])
        assert second.result(timeout=60).neighbors == self.expected(
            service_oracle, [4, 5, 6])
        stats = server.stats.snapshot()
        assert (stats["batches_served"], stats["queries_served"]) == (1, 2)

    def test_a_lone_session_is_dispatched_without_a_wait(self, served,
                                                         service_oracle):
        server, recorder = served
        session = server.open_session("alice")
        server.start()
        for query in ([1, 2, 3], [7, 0, 2]):
            answer = session.query(query, 2, timeout=60)
            assert answer.neighbors == self.expected(service_oracle, query)
        assert not recorder.filling.is_set()
        assert server.stats.snapshot()["batches_served"] == 2

    def test_stop_during_a_fill_wait_returns_and_drains(self, served,
                                                         service_oracle):
        server, recorder = served
        alice = server.open_session("alice")
        server.open_session("bob")  # never asks: the batch cannot fill
        server.start()
        pending = alice.submit([2, 2, 2], 2)
        assert recorder.filling.wait(timeout=60)
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        stopper.join(timeout=60)
        assert not stopper.is_alive() and not server.running
        assert pending.done() and server.scheduler.pending == 0
        assert pending.result().neighbors == self.expected(service_oracle,
                                                           [2, 2, 2])


class TestSystemIntegration:
    def test_sharded_mode_end_to_end(self, service_table, service_oracle):
        with SkNNSystem.setup(service_table, key_size=128, mode="sharded",
                              shards=3, workers=2, parallel_backend="serial",
                              rng=Random(20)) as system:
            query = [6, 2, 7]
            expected = [r.record.values for r in service_oracle.query(query, 3)]
            assert system.query(query, 3) == expected
            answer = system.query_with_report(query, 3)
            assert answer.report is not None
            assert answer.report.protocol == "SkNNb-sharded"

    def test_k_default_used_when_k_omitted(self, service_table,
                                           service_oracle):
        with SkNNSystem.setup(service_table, key_size=128, mode="basic",
                              k_default=2, rng=Random(21)) as system:
            query = [5, 1, 4]
            expected = [r.record.values for r in service_oracle.query(query, 2)]
            assert system.query(query) == expected
            # An explicit k still wins over the default.
            assert len(system.query(query, 4)) == 4

    def test_missing_k_without_default_rejected(self, service_table):
        with SkNNSystem.setup(service_table, key_size=128, mode="basic",
                              rng=Random(22)) as system:
            with pytest.raises(QueryError):
                system.query([1, 1, 1])

    def test_serve_entry_point_round_trip(self, service_table,
                                          service_oracle):
        system = SkNNSystem.setup(service_table, key_size=128, mode="basic",
                                  rng=Random(23))
        server = system.serve(shards=2, workers=1, backend="serial",
                              batch_size=2, precompute=1)
        with server:
            session = server.open_session("bob")
            answer = session.query([2, 7, 3], 2, timeout=120)
        expected = [r.record.values for r in service_oracle.query([2, 7, 3], 2)]
        assert answer.neighbors == expected
        system.close()

    def test_serve_needs_the_in_process_cloud(self, small_keypair,
                                              service_table):
        """A distributed system answers through its daemons only: ``serve``
        refuses it typed, and refusing leaves its remote untouched."""

        class StubRemote:
            closed = False

            def close(self):
                self.closed = True

        remote = StubRemote()
        owner = DataOwner(service_table, keypair=small_keypair)
        client = QueryClient(small_keypair.public_key,
                             service_table.dimensions, rng=Random(24))
        with SkNNSystem(owner, None, client, mode="distributed",
                        remote=remote) as system:
            with pytest.raises(ConfigurationError, match="in-process cloud"):
                system.serve()
            assert not remote.closed
        assert remote.closed
