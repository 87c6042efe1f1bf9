"""Cross-machine sharding: shard C1 daemons + coordinator + one shared C2.

The acceptance bar for "shards = machines": a sharded SkNN_b query executed
across real shard-daemon subprocesses must return **bit-identical** results
to both the serial in-memory stack and the plaintext oracle, under
sequential and concurrent load — C2 seeing exactly the serial protocol's
tags — a sharded SkNN_m query must be oracle-correct, and a killed shard
daemon must fail only the affected queries with typed retriable errors,
then recover after a supervised restart.

CI runs this at 256-bit keys (``REPRO_DISTRIBUTED_BITS`` overrides).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from random import Random

import pytest

from repro.analysis.cost_model import sknn_basic_counts, ssed_scan_cost
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_shard import shard_bounds
from repro.db.datasets import synthetic_uniform
from repro.db.knn import LinearScanKNN
from repro.exceptions import (
    ChannelError,
    DeadlineExceeded,
    PeerUnavailable,
)
from repro.resilience.policy import RetryPolicy
from repro.transport.supervisor import LocalSupervisor
from tests.integration.helpers import (
    assert_stats_are_row_sums,
    assert_valid_knn_answer,
)

KEY_BITS = int(os.environ.get("REPRO_DISTRIBUTED_BITS", "256"))

N_RECORDS = 11  # deliberately odd: divmod gives the shards unequal slices
DIMENSIONS = 2
DISTANCE_BITS = 7
SHARDS = 2
QUERIES = ([3, 4], [6, 1], [1, 7])
K = 2


@pytest.fixture(scope="module")
def dataset():
    return synthetic_uniform(n_records=N_RECORDS, dimensions=DIMENSIONS,
                             distance_bits=DISTANCE_BITS, seed=9)


@pytest.fixture(scope="module")
def owner(dataset):
    return DataOwner(dataset, key_size=KEY_BITS, rng=Random(20140710))


@pytest.fixture(scope="module")
def supervisor():
    """2 shard daemons + coordinator C1 + C2, pooled peer connections."""
    with LocalSupervisor(shards=SHARDS, peer_connections=2,
                         io_deadline=60.0) as sup:
        yield sup


@pytest.fixture(scope="module")
def remote(supervisor, owner):
    return supervisor.provision_from_owner(owner, seed=11)


@pytest.fixture(scope="module")
def client(owner, dataset):
    return QueryClient(owner.public_key, dataset.dimensions, rng=Random(21))


def serial_stack(owner, dataset):
    """The in-memory serial SkNN_b stack and a client of its own."""
    from repro.core.cloud import FederatedCloud
    from repro.core.sknn_basic import SkNNBasic

    cloud = FederatedCloud.deploy(owner.keypair, rng=Random(31))
    cloud.c1.host_database(owner.encrypt_database())
    reference_client = QueryClient(owner.public_key, dataset.dimensions,
                                   rng=Random(32))
    return SkNNBasic(cloud), reference_client


def serial_answers(owner, dataset):
    """Reference answers from the in-memory serial SkNN_b stack."""
    protocol, reference_client = serial_stack(owner, dataset)
    return [reference_client.reconstruct(
        protocol.run(reference_client.encrypt_query(query), K))
        for query in QUERIES]


class TestShardedBitIdentity:
    def test_sharded_daemons_match_serial_and_oracle(self, owner, dataset,
                                                     remote, client):
        oracle = LinearScanKNN(dataset)
        for query, expected in zip(QUERIES, serial_answers(owner, dataset)):
            shares, report = remote.query(client.encrypt_query(query), K,
                                          mode="basic")
            neighbors = client.reconstruct(shares)
            assert neighbors == expected, (
                "sharded daemons diverged from the serial stack")
            assert neighbors == [r.record.values
                                 for r in oracle.query(query, K)]
            assert report is not None

    def test_concurrent_sharded_queries_stay_bit_identical(
            self, owner, dataset, remote, client):
        expected = serial_answers(owner, dataset)
        jobs = [(index, client.encrypt_query(query))
                for index, query in enumerate(QUERIES) for _ in range(2)]
        clones = [remote.clone() for _ in jobs]

        def run(slot):
            index, encrypted = jobs[slot]
            shares, _ = clones[slot].query(encrypted, K, mode="basic")
            return index, client.reconstruct(shares)

        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                results = list(pool.map(run, range(len(jobs))))
        finally:
            for clone in clones:
                clone.close()
        for index, neighbors in results:
            assert neighbors == expected[index]

    def test_sharded_secure_queries_match_the_oracle(self, dataset, remote,
                                                     client):
        """Shards hand the coordinator ciphertexts, so SkNN_m runs over the
        scattered scan too; it breaks distance ties at random, hence the
        distance-profile rule instead of equality."""
        for query in QUERIES:
            shares, report = remote.query(client.encrypt_query(list(query)),
                                          K, mode="secure")
            assert_valid_knn_answer(dataset, list(query), K,
                                    client.reconstruct(shares))
            assert report.protocol == "SkNNm"
            assert report.stats.extra["shard_records_scanned"] == N_RECORDS

    def test_c2_sees_the_serial_tags(self, owner, dataset, remote, client):
        """C2's view of a sharded SkNN_b query is the serial view: the same
        protocol tags, every record's distance arriving once in one frame —
        only the scan's SSED rounds come once per shard."""
        protocol, reference_client = serial_stack(owner, dataset)
        protocol.run(reference_client.encrypt_query(list(QUERIES[0])), K)
        serial = protocol.cloud.channel.total_traffic().tag_messages

        def c2_protocol_messages():
            return {tag: entry["messages"] for tag, entry
                    in remote.stats()["c2"]["traffic_by_tag"].items()
                    if not tag.startswith(("telemetry.", "transport."))}

        before = c2_protocol_messages()
        remote.query(client.encrypt_query(list(QUERIES[0])), K, mode="basic")
        delta = {tag: count - before.get(tag, 0)
                 for tag, count in c2_protocol_messages().items()
                 if count != before.get(tag, 0)}
        assert delta == {tag: count * (SHARDS if tag.startswith("SSED.")
                                       else 1)
                         for tag, count in serial.items()}


def assert_exact_sharded_totals(stats, queries):
    """``stats`` == ``queries`` x (each shard's scan + selection + delivery).

    Every shard negates the query itself, so the scan is the sum of the
    per-slice ``ssed_scan_cost``; what is left of ``sknn_basic_counts``
    (C2 decrypting the n distances, the k*m delivery) happens once.
    """
    scans = [ssed_scan_cost(stop - start, DIMENSIONS).total
             for start, stop in shard_bounds(N_RECORDS, SHARDS)]
    whole = sknn_basic_counts(N_RECORDS, DIMENSIONS, K, batched=True)
    unsharded = ssed_scan_cost(N_RECORDS, DIMENSIONS).total
    for measured, op in ((stats.total_encryptions, "encryptions"),
                         (stats.total_decryptions, "decryptions"),
                         (stats.total_exponentiations, "exponentiations")):
        expected = (sum(getattr(scan, op) for scan in scans)
                    + getattr(whole, op) - getattr(unsharded, op))
        assert measured == queries * expected, op


class TestShardedObservability:
    def test_stats_expose_shard_topology(self, remote):
        stats = remote.stats()
        coordinator = stats["c1"]
        assert len(coordinator["shards"]) == SHARDS
        shard_payloads = stats["shards"]
        starts = []
        for index, payload in enumerate(shard_payloads):
            shard = payload["shard"]
            assert shard["index"] == index
            assert shard["count"] == SHARDS
            starts.append(shard["start_index"])
        # divmod-contiguous slices: 11 records over 2 shards -> 6 + 5.
        assert starts == [0, 6]

    def test_cost_rows_attribute_each_shard(self, remote, client):
        _, report = remote.query(client.encrypt_query(list(QUERIES[0])), K,
                                 mode="basic")
        parties = {row["party"] for row in report.cost_breakdown}
        assert {"C1", "C2"} <= parties
        assert {f"C1-shard{index}" for index in range(SHARDS)} <= parties
        # The stitched scan covered every record exactly once.
        scanned = report.stats.extra.get("shard_records_scanned")
        assert scanned == N_RECORDS
        assert_exact_sharded_totals(report.stats, queries=1)
        assert_stats_are_row_sums(report)


class TestShardFailureDomain:
    def test_killed_shard_fails_typed_then_recovers(self, supervisor, owner,
                                                    dataset, client):
        """A dead shard daemon fails the query with a typed retriable
        error — never a partial top-k; a supervised restart + re-provision
        restores bit-identical answers."""
        remote = supervisor.connect(retry=RetryPolicy.none(),
                                    request_deadline=60.0)
        try:
            remote.provision(
                owner.keypair, owner.encrypt_database(),
                distance_bits=owner.distance_bit_length(), seed=13)
            expected = serial_answers(owner, dataset)

            supervisor.kill("c1-shard1")
            with pytest.raises((PeerUnavailable, DeadlineExceeded,
                                ChannelError)):
                remote.query(client.encrypt_query(list(QUERIES[0])), K,
                             mode="basic")

            supervisor.restart_role("c1-shard1")
            for attempt in range(3):
                # Client sockets opened before the kill heal lazily: a
                # failed request drops them, the next one re-dials.  With
                # retries disabled that takes one explicit extra pass.
                try:
                    remote.ensure_provisioned()
                    break
                except (PeerUnavailable, ChannelError):
                    if attempt == 2:
                        raise
            shares, _ = remote.query(client.encrypt_query(list(QUERIES[0])),
                                     K, mode="basic")
            assert client.reconstruct(shares) == expected[0]
        finally:
            remote.close()
