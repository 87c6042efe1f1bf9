"""A sharded query is the serial protocol with a scattered SSED scan.

The coordinator placement in one process: the ``scan`` callable below does
what a coordinator daemon's scatter does — one :class:`ShardScanProtocol`
per :func:`shard_bounds` slice, each against its own channel to a key
holder, replies concatenated in shard order — and the protocol it is set on
is plain :class:`SkNNBasic` / :class:`SkNNSecure` over the unsharded table.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.core.cloud import FederatedCloud
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.core.sknn_shard import ShardScanProtocol, shard_bounds, shard_table
from repro.db.knn import LinearScanKNN
from repro.db.schema import Schema
from repro.db.table import Table
from repro.exceptions import ProtocolError, QueryError
from tests.integration.helpers import assert_valid_knn_answer

QUERY = [5, 5]

#: 11 records whose distances to ``QUERY`` tie across every slice boundary of
#: a 2-way (6 | 5) and a 3-way (4 | 4 | 3) split, with duplicate records.
ROWS = [
    (9, 9),  # 0: d=32
    (5, 7),  # 1: d=4
    (0, 0),  # 2: d=50
    (5, 6),  # 3: d=1
    (6, 5),  # 4: d=1   ties 3 across the 3-way boundary 3|4
    (5, 3),  # 5: d=4
    (7, 5),  # 6: d=4   ties 5 across the 2-way boundary 5|6
    (5, 6),  # 7: d=1   duplicate of 3
    (4, 5),  # 8: d=1   ties 7 across the 3-way boundary 7|8
    (9, 9),  # 9: d=32  duplicate of 0
    (5, 5),  # 10: d=0
]


@pytest.fixture(scope="module")
def table():
    return Table.from_rows(Schema.uniform(2, 9), ROWS)


@pytest.fixture(scope="module")
def owner(table, small_keypair):
    return DataOwner(table, keypair=small_keypair, rng=Random(5))


@pytest.fixture(scope="module")
def client(table, small_keypair):
    return QueryClient(small_keypair.public_key, table.dimensions,
                       rng=Random(6))


def deploy(owner, encrypted_table, seed: int) -> FederatedCloud:
    cloud = FederatedCloud.deploy(owner.keypair, rng=Random(seed))
    cloud.c1.host_database(encrypted_table)
    return cloud


def scattered(protocol, owner, shards: int):
    """Point ``protocol``'s scan at ``shards`` in-process shard protocols."""
    encrypted_table = protocol.encrypted_table
    assert [stop - start for start, stop
            in shard_bounds(len(encrypted_table), shards)] == (
        [6, 5] if shards == 2 else [4, 4, 3])
    shard_protocols = [
        ShardScanProtocol(
            deploy(owner, shard_table(encrypted_table, index, shards)[0],
                   seed=70 + index),
            party=f"C1-shard{index}")
        for index in range(shards)]

    def scan(encrypted_query):
        return [distance for shard in shard_protocols
                for distance in shard.run(encrypted_query)]

    protocol.scan = scan
    return protocol


@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize("k", [1, 3, 7, len(ROWS)])
def test_sknn_b_over_a_scattered_scan_is_the_serial_answer(
        table, owner, client, shards, k):
    encrypted_table = owner.encrypt_database()
    serial = SkNNBasic(deploy(owner, encrypted_table, seed=40))
    coordinator = scattered(
        SkNNBasic(deploy(owner, encrypted_table, seed=41)), owner, shards)
    expected = client.reconstruct(serial.run(client.encrypt_query(QUERY), k))
    answer = client.reconstruct(
        coordinator.run(client.encrypt_query(QUERY), k))
    assert answer == expected
    assert answer == [neighbor.record.values for neighbor
                      in LinearScanKNN(table).query(QUERY, k)]


@pytest.mark.parametrize("shards", [2, 3])
def test_sknn_m_over_a_scattered_scan_is_oracle_correct(
        table, owner, client, shards):
    coordinator = scattered(
        SkNNSecure(deploy(owner, owner.encrypt_database(), seed=42),
                   distance_bits=owner.distance_bit_length()), owner, shards)
    answer = client.reconstruct(
        coordinator.run(client.encrypt_query(QUERY), 3))
    assert_valid_knn_answer(table, QUERY, 3, answer)


def test_the_coordinator_sends_c2_the_serial_tags(owner, client):
    """C2's view: the coordinator's own channel carries select and deliver
    only, the scan's rounds ran on the shards' channels."""
    encrypted_table = owner.encrypt_database()
    serial = SkNNBasic(deploy(owner, encrypted_table, seed=43))
    serial.run(client.encrypt_query(QUERY), 2)
    serial_tags = set(serial.cloud.channel.total_traffic().tag_messages)
    coordinator = scattered(
        SkNNBasic(deploy(owner, encrypted_table, seed=44)), owner, 2)
    coordinator.run(client.encrypt_query(QUERY), 2)
    tags = coordinator.cloud.channel.total_traffic().tag_messages
    assert tags == {"SkNNb.encrypted_distances": 1, "SkNNb.topk_indices": 1,
                    "SkNN.masked_results": 1}
    shard_tags = {tag for tag in serial_tags if tag.startswith("SSED.")}
    assert set(tags) | shard_tags == serial_tags


def test_a_short_scan_is_a_typed_failure_not_a_partial_top_k(owner, client):
    coordinator = SkNNBasic(deploy(owner, owner.encrypt_database(), seed=45))
    full = coordinator._compute_encrypted_distances(
        client.encrypt_query(QUERY))
    coordinator.scan = lambda encrypted_query: full[:-1]
    with pytest.raises(ProtocolError, match="10 distances for 11 records"):
        coordinator.run(client.encrypt_query(QUERY), 2)


def test_a_shard_checks_the_query_arity(owner, client):
    shard = ShardScanProtocol(
        deploy(owner, shard_table(owner.encrypt_database(), 0, 2)[0],
               seed=46), party="C1-shard0")
    with pytest.raises(QueryError, match="1 attributes, expected 2"):
        shard.run(client.encrypt_query(QUERY)[:1])
    assert shard.party == "C1-shard0"
