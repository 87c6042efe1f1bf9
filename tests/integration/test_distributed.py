"""Distributed runtime: C1 and C2 as real OS processes over localhost TCP.

The acceptance bar for the transport subsystem: an end-to-end SkNN_m query
executed across two separate daemon processes must return **bit-identical**
results to the in-memory serial protocol stack on the same keypair and
dataset.  The CI distributed-smoke job runs this module at 256-bit keys
(``REPRO_DISTRIBUTED_BITS`` overrides locally).
"""

from __future__ import annotations

import os
import socket
import time
from random import Random

import pytest

from repro.core.roles import DataOwner, QueryClient
from repro.core.system import SkNNSystem
from repro.crypto.paillier import Ciphertext, slots
from repro.db.datasets import synthetic_uniform
from repro.db.knn import LinearScanKNN
from repro.db.schema import Schema
from repro.db.table import Table
from repro.exceptions import ChannelError, ConfigurationError
from repro.network.channel import Message
from repro.transport.client import RemoteCloud
from repro.transport.daemon import C1Daemon, C2Daemon
from repro.transport.framing import recv_frame, send_frame
from repro.transport.mux import MuxConnection
from repro.transport.supervisor import LocalSupervisor
from repro.transport.wire import WireCodec

KEY_BITS = int(os.environ.get("REPRO_DISTRIBUTED_BITS", "256"))

N_RECORDS = 10
DIMENSIONS = 2
DISTANCE_BITS = 7
QUERIES = ([3, 4], [6, 1])
K = 2


@pytest.fixture(scope="module")
def dataset():
    return synthetic_uniform(n_records=N_RECORDS, dimensions=DIMENSIONS,
                             distance_bits=DISTANCE_BITS, seed=5)


@pytest.fixture(scope="module")
def owner(dataset):
    """Alice with one key pair shared by the in-memory and distributed runs."""
    return DataOwner(dataset, key_size=KEY_BITS, rng=Random(20140709))


@pytest.fixture(scope="module")
def supervisor():
    """Two real daemon subprocesses, shared by the tests of this module."""
    with LocalSupervisor() as sup:
        yield sup


@pytest.fixture(scope="module")
def remote(supervisor, owner):
    return supervisor.provision_from_owner(owner, seed=11)


def serial_answers(owner, dataset, mode):
    """Reference answers from the in-memory (serial) protocol stack."""
    from repro.core.cloud import FederatedCloud

    cloud = FederatedCloud.deploy(owner.keypair, rng=Random(31))
    cloud.c1.host_database(owner.encrypt_database())
    client = QueryClient(owner.public_key, dataset.dimensions, rng=Random(32))
    if mode == "secure":
        from repro.core.sknn_secure import SkNNSecure
        protocol = SkNNSecure(cloud,
                              distance_bits=owner.distance_bit_length())
    else:
        from repro.core.sknn_basic import SkNNBasic
        protocol = SkNNBasic(cloud)
    answers = []
    for query in QUERIES:
        shares = protocol.run(client.encrypt_query(query), K)
        answers.append(client.reconstruct(shares))
    return answers


class TestBitIdenticalAnswers:
    """The acceptance criterion: distributed == serial, bit for bit."""

    @pytest.mark.parametrize("mode", ["basic", "secure"])
    def test_distributed_matches_serial(self, owner, dataset, remote, mode):
        client = QueryClient(owner.public_key, dataset.dimensions,
                             rng=Random(33))
        reference = serial_answers(owner, dataset, mode)
        oracle = LinearScanKNN(dataset)
        for query, expected in zip(QUERIES, reference):
            shares, report = remote.query(client.encrypt_query(query), K,
                                          mode=mode)
            neighbors = client.reconstruct(shares)
            assert neighbors == expected, (
                f"distributed {mode} answer differs from the serial stack")
            # ... and both equal the plaintext oracle.
            assert neighbors == [r.record.values
                                 for r in oracle.query(query, K)]
            if report is not None:
                # Real (measured) wire traffic, not simulated estimates.
                assert report.stats.bytes_transferred > 0
                assert report.stats.messages > 0

    def test_share_halves_never_meet_at_c1(self, owner, dataset, remote):
        """C1's query reply must not contain C2's decrypted half: the masks
        come from C1, the masked values only from C2's own connection."""
        client = QueryClient(owner.public_key, dataset.dimensions,
                             rng=Random(34))
        reply = remote.c1.request("transport.query", {
            "mode": "basic", "k": K,
            "query": client.encrypt_query(list(QUERIES[0])),
        })
        assert set(reply) == {"masks", "modulus", "delivery_id", "report"}
        masked = remote.c2.request("transport.fetch_share", {
            "delivery_id": reply["delivery_id"], "timeout": 30.0,
        })
        assert len(masked) == K
        records = [
            tuple((gamma - mask) % reply["modulus"]
                  for gamma, mask in zip(masked_row, mask_row))
            for mask_row, masked_row in zip(reply["masks"], masked)
        ]
        oracle = LinearScanKNN(dataset)
        assert records == [r.record.values
                           for r in oracle.query(QUERIES[0], K)]

    def test_fetching_a_share_twice_fails(self, owner, dataset, remote):
        """Shares are single-use: the mailbox hands each out exactly once."""
        client = QueryClient(owner.public_key, dataset.dimensions,
                             rng=Random(35))
        shares, _ = remote.query(client.encrypt_query(QUERIES[0]), K,
                                 mode="basic")
        with pytest.raises(ChannelError, match="no share filed"):
            remote.c2.request("transport.fetch_share", {
                "delivery_id": shares.delivery_id, "timeout": 0.2,
            })


class TestEliminationAtTheDomainMaximum:
    def test_no_duplicate_neighbour_at_distance_two_to_the_l_minus_one(self):
        """(1, 1, 1) lies at 3 = 2**l - 1 from the query: a selected record
        must not come back as the second neighbour in its place."""
        table = Table.from_rows(Schema.uniform(3, 1), [[0, 0, 0], [1, 1, 1]])
        owner = DataOwner(table, key_size=KEY_BITS, rng=Random(41))
        daemons = [role(port=0) for role in (C1Daemon, C2Daemon)]
        for daemon in daemons:
            daemon.start()
        c1, c2 = daemons
        remote = RemoteCloud((c1.host, c1.port), (c2.host, c2.port))
        try:
            remote.provision(owner.keypair, owner.encrypt_database(),
                             distance_bits=owner.distance_bit_length(),
                             seed=42)
            client = QueryClient(owner.public_key, 3, rng=Random(43))
            for _ in range(8):
                shares, _ = remote.query(client.encrypt_query([0, 0, 0]), 2,
                                         mode="secure")
                assert client.reconstruct(shares) == [(0, 0, 0), (1, 1, 1)]
        finally:
            remote.close()
            for daemon in daemons:
                daemon.close()


class TestTelemetryStitching:
    """Cross-cloud observability: one trace, C2's work fully accounted."""

    def test_secure_query_yields_one_stitched_trace(self, owner, dataset,
                                                    remote):
        client = QueryClient(owner.public_key, dataset.dimensions,
                             rng=Random(36))
        _, report = remote.query(client.encrypt_query(list(QUERIES[0])), K,
                                 mode="secure")
        assert report is not None and report.trace is not None
        trace = report.trace
        spans = trace["spans"]
        assert spans, "a distributed query must produce spans"
        # Single trace: every span — C1's protocol rounds and C2's daemon
        # handler dispatches alike — carries the same trace id.
        assert {span["trace_id"] for span in spans} == {trace["trace_id"]}
        assert {span["party"] for span in spans} == {"C1", "C2"}
        names = [span["name"] for span in spans]
        assert any(name.startswith("query.SkNNm") for name in names)
        assert any(name.startswith("p2.") for name in names), (
            "C2 daemon dispatch spans must be stitched into C1's trace")
        # Spans arrive sorted by start time (the timeline contract).
        starts = [span["start"] for span in spans]
        assert starts == sorted(starts)

    def test_c2_operation_counts_match_serial_totals(self, owner, dataset,
                                                     remote):
        """The zero-C2-counters gap: the daemon's report must account the
        remote party's crypto work, and the grand totals must equal what
        the in-memory serial stack counts at identical parameters."""
        from repro.core.cloud import FederatedCloud
        from repro.core.sknn_secure import SkNNSecure

        client = QueryClient(owner.public_key, dataset.dimensions,
                             rng=Random(37))
        _, report = remote.query(client.encrypt_query(list(QUERIES[0])), K,
                                 mode="secure")
        assert report.stats.c2_encryptions > 0
        assert report.stats.c2_decryptions > 0

        cloud = FederatedCloud.deploy(owner.keypair, rng=Random(38))
        cloud.c1.host_database(owner.encrypt_database())
        serial_client = QueryClient(owner.public_key, dataset.dimensions,
                                    rng=Random(39))
        protocol = SkNNSecure(cloud, distance_bits=owner.distance_bit_length())
        protocol.run_with_report(
            serial_client.encrypt_query(list(QUERIES[0])), K)
        serial = protocol.last_report.stats

        distributed = report.stats
        # Every count and the wire transcript are rng-invariant (no SBD,
        # whose odd masks made C1's counts wiggle): exact, party by party —
        # both runtimes project ``stats`` from ledger rows attributed the
        # same way.  C2 raises nothing to a power in SkNN_m.
        assert distributed.messages == serial.messages
        assert distributed.ciphertexts_exchanged == \
            serial.ciphertexts_exchanged
        for party in ("c1", "c2"):
            for operation in ("encryptions", "exponentiations"):
                field = f"{party}_{operation}"
                assert getattr(distributed, field) == getattr(serial, field)
        assert distributed.total_decryptions == serial.total_decryptions
        assert distributed.c2_exponentiations == 0

    def test_metrics_control_tag_exposes_both_daemons(self, owner, dataset,
                                                      remote):
        """``transport.metrics`` returns each daemon's registry without
        needing the HTTP listener."""
        client = QueryClient(owner.public_key, dataset.dimensions,
                             rng=Random(40))
        remote.query(client.encrypt_query(list(QUERIES[0])), K, mode="basic")
        for role, payload in remote.metrics().items():
            assert payload["role"] == role
            assert "# TYPE" in payload["prometheus"]
        c2 = remote.metrics()["c2"]["snapshot"]
        steps = c2.get("repro_p2_steps_total", {}).get("values", {})
        assert steps and all(count > 0 for count in steps.values()), (
            "C2 must count its handler dispatches by tag")


class TestSystemIntegration:
    def test_sknn_system_distributed_mode(self, dataset):
        """``SkNNSystem`` spawns, provisions and shuts down its own pair."""
        oracle = LinearScanKNN(dataset)
        with SkNNSystem.setup(dataset, key_size=KEY_BITS, mode="distributed",
                              rng=Random(7), k_default=K) as system:
            answer = system.query_with_report(list(QUERIES[0]), K)
            assert answer.neighbors == [
                r.record.values for r in oracle.query(QUERIES[0], K)]
            assert answer.report is not None
            assert answer.report.protocol == "SkNNm"
            supervisor = system.supervisor
            assert supervisor.running
        # Context exit shut the daemons down; nothing may leak.
        assert not supervisor.running


class TestConcurrentPipelinedQueries:
    """N in-flight queries overlap on the multiplexed peer link.

    The acceptance bar for the pipelined data plane: concurrency must not
    perturb a single query's observable result — answers stay bit-identical
    and the stitched per-query C2 operation counters and cost-ledger rows
    stay *exact*, because each query's C2 work runs in its own context
    worker under a thread-scoped counter.
    """

    def test_concurrent_queries_stay_exact(self, owner, dataset, remote):
        from concurrent.futures import ThreadPoolExecutor

        client = QueryClient(owner.public_key, dataset.dimensions,
                             rng=Random(41))
        oracle = LinearScanKNN(dataset)
        expected = {tuple(query): [r.record.values for r in oracle.query(
            list(query), K)] for query in QUERIES}

        # Solo baselines: the exact counters of uncontended runs.
        solo = {}
        for query in QUERIES:
            _, report = remote.query(client.encrypt_query(list(query)), K,
                                     mode="basic")
            solo[tuple(query)] = report.stats

        # Two concurrent in-flight queries per distinct query point, each
        # on its own client connection (the daemon pipelines them over the
        # shared peer link).  Queries are encrypted up front: QueryClient's
        # rng is not a shared-state concern we want in this test.
        jobs = [(tuple(query), client.encrypt_query(list(query)))
                for query in QUERIES for _ in range(2)]
        clones = [remote.clone() for _ in jobs]

        def run(index):
            query, encrypted = jobs[index]
            shares, report = clones[index].query(encrypted, K, mode="basic")
            return query, client.reconstruct(shares), report

        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                results = list(pool.map(run, range(len(jobs))))
        finally:
            for clone in clones:
                clone.close()

        assert len(results) == len(jobs)
        for query, neighbors, report in results:
            assert neighbors == expected[query], (
                "a concurrent in-flight query returned a wrong answer")
            baseline = solo[query]
            stats = report.stats
            # Exactness under concurrency: same counters as the solo run.
            assert stats.c2_decryptions == baseline.c2_decryptions
            assert stats.c2_encryptions == baseline.c2_encryptions
            assert stats.messages == baseline.messages
            assert stats.ciphertexts_exchanged == \
                baseline.ciphertexts_exchanged
            # ... and the stitched C2 cost rows agree with those counters.
            totals: dict[str, float] = {}
            for row in report.cost_breakdown:
                if row["party"] == "C2":
                    for op, count in row["ops"].items():
                        totals[op] = totals.get(op, 0) + count
            assert totals.get("decryptions", 0) == stats.c2_decryptions
            assert totals.get("encryptions", 0) == stats.c2_encryptions

    def test_stats_expose_pipelining_introspection(self, remote):
        """/stats carries the inflight gauge and per-connection rows."""
        stats = remote.stats()
        for payload in stats.values():
            assert payload["inflight_queries"] == 0  # nothing running now
        c1 = stats["c1"]
        assert c1["peer_connections_target"] >= 1
        rows = c1["peer_connections"]
        assert rows and all({"index", "alive", "active_contexts",
                             "messages", "bytes_transferred"}
                            <= set(row) for row in rows)
        assert any(row["alive"] for row in rows)
        snapshot = remote.metrics()["c1"]["snapshot"]
        assert "repro_inflight_queries" in snapshot


class TestRestartWithPoolCache:
    def test_restarted_party_starts_hot(self, tmp_path, dataset):
        """--pool-cache: a restarted daemon pair reloads its warmed pools."""
        owner = DataOwner(dataset, key_size=KEY_BITS, rng=Random(61))
        cache_dir = tmp_path / "pool-caches"
        with LocalSupervisor(pool_cache=cache_dir) as sup:
            sup.provision_from_owner(owner, seed=3, precompute_queries=1)
            sup.restart()
            remote = sup.connect()
            reply = remote.provision(owner.keypair, owner.encrypt_database(),
                                     distance_bits=owner.distance_bit_length(),
                                     seed=4, precompute_queries=1)
            # Both daemons reloaded offline material their previous
            # incarnation computed.
            assert reply["c1"]["pool_items_loaded"] > 0
            assert reply["c2"]["pool_items_loaded"] > 0
            client = QueryClient(owner.public_key, dataset.dimensions,
                                 rng=Random(62))
            shares, _ = remote.query(client.encrypt_query(QUERIES[0]), K,
                                     mode="basic")
            oracle = LinearScanKNN(dataset)
            assert client.reconstruct(shares) == [
                r.record.values for r in oracle.query(QUERIES[0], K)]


class TestHostileScanFrames:
    def test_malformed_scan_frame_is_a_typed_error_and_c2_keeps_serving(
            self, owner, dataset, supervisor, remote):
        """A cloud peer sending malformed ``SSED.masked_differences``
        frames — ragged rows, slots too wide for the key, a count that is
        not whole records, more values than the packs hold — gets C2's
        typed refusal on each context; the daemon's next real query is
        answered as if nothing happened."""
        codec = WireCodec(owner.public_key)
        sock = socket.create_connection(supervisor.addresses["c2"],
                                        timeout=10)
        connection = None
        try:
            # No epoch in the hello (as a shard daemon dials): the mailbox
            # of the module's real C1 is left alone.
            send_frame(sock, codec.encode_message(Message(
                sender="C1", recipient="C2", tag="transport.hello",
                payload={"peer": "cloud"})))
            assert codec.decode_message(
                recv_frame(sock)).tag == "transport.hello_ok"
            connection = MuxConnection(sock, codec, "C1", "C2",
                                       io_deadline=10.0)
            connection.start_reader()
            cipher = owner.public_key.encrypt(1)
            key_size = owner.public_key.key_size
            per_pack = slots(key_size, 46)
            for index, frame in enumerate([
                    [[cipher, cipher], [cipher]],
                    [1, key_size, 1, [cipher]],
                    [2, 46, 3, [cipher, cipher]],
                    [1, 46, per_pack + 1, [cipher]]]):
                channel = connection.channel(f"hostile-{index}")
                channel.send("C1", frame, tag="SSED.masked_differences")
                with pytest.raises(
                        ChannelError,
                        match="SSED: malformed masked-difference batch"):
                    channel.receive("C1",
                                    expected_tag="SSED.masked_square_sums")
        finally:
            if connection is not None:
                connection.close()
            else:
                sock.close()

        client = QueryClient(owner.public_key, dataset.dimensions,
                             rng=Random(77))
        shares, _ = remote.query(client.encrypt_query(QUERIES[0]), K,
                                 mode="basic")
        assert client.reconstruct(shares) == [
            r.record.values
            for r in LinearScanKNN(dataset).query(QUERIES[0], K)]


class TestHostileQueryCiphertexts:
    @pytest.mark.parametrize("mode", ["basic", "secure"])
    def test_a_non_unit_reaching_a_negation_fails_typed_and_c1_keeps_serving(
            self, owner, dataset, remote, mode):
        """A query attribute that is a multiple of a prime factor of N is no
        ciphertext: it has no inverse mod N^2, so the scan's hoisted
        negation ``E(-x_j)`` refuses it with the backend's typed error (a
        ``c**(N-1)`` would have carried the non-unit on to C2).  The daemon
        answers the next query as if nothing happened."""
        client = QueryClient(owner.public_key, dataset.dimensions,
                             rng=Random(78))
        encrypted = client.encrypt_query(QUERIES[0])
        hostile = [Ciphertext(owner.public_key, owner.keypair.private_key.p),
                   *encrypted[1:]]
        with pytest.raises(ChannelError, match="has no inverse modulo"):
            remote.query(hostile, K, mode=mode)

        shares, _ = remote.query(encrypted, K, mode=mode)
        assert client.reconstruct(shares) == [
            r.record.values
            for r in LinearScanKNN(dataset).query(QUERIES[0], K)]


class TestDaemonHygiene:
    def test_close_of_an_idle_provisioned_daemon_is_prompt(self, owner):
        """close() must wake the thread blocked in accept(), not wait out
        its join timeout."""
        daemons = [role(port=0) for role in (C1Daemon, C2Daemon)]
        for daemon in daemons:
            daemon.start()
        c1, c2 = daemons
        remote = RemoteCloud((c1.host, c1.port), (c2.host, c2.port))
        try:
            remote.provision(owner.keypair, owner.encrypt_database(), seed=3)
        finally:
            remote.close()
        for daemon in daemons:
            started = time.perf_counter()
            daemon.close()
            assert time.perf_counter() - started < 1.0, daemon.role

    def test_unprovisioned_query_is_rejected(self):
        with LocalSupervisor() as sup:
            remote = sup.connect()
            try:
                # The typed error frame reconstructs the daemon's actual
                # (non-retriable) exception on the client side.
                with pytest.raises(ConfigurationError, match="not provisioned"):
                    remote.c1.request("transport.query",
                                      {"mode": "basic", "k": 1, "query": []})
            finally:
                remote.close()

    def test_shutdown_leaves_no_processes(self, dataset):
        sup = LocalSupervisor().start()
        processes = dict(sup._processes)
        assert sup.running
        sup.shutdown()
        for role, process in processes.items():
            assert process.poll() is not None, f"{role} daemon still alive"
        assert not sup.running
