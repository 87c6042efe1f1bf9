"""Packed plaintexts: many short values per Paillier plaintext.

``PaillierPublicKey.pack`` folds ``slots(w) = (K - 1) // w`` ciphertexts
into one by Horner's rule and ``unpack`` splits a decrypted residue back
into its ``w``-bit slots.  SSED packs its masked differences (each
pipelined half on its own, across record boundaries) and SkNN_b its
distances, so

* ``unpack(decrypt(pack(...)))`` round-trips every slot count from 1 to
  ``slots(w)``, across several packs, at the values 0 and ``2**w - 1``, on
  both bigint backends and at K=128 and 256;
* SSED's distances and SkNN_b's answers equal the plaintext oracle when a
  half holds ``slots - 1``, ``slots`` or ``slots + 1`` differences, for a
  single record, and at attribute values 0 and the domain maximum — run
  serially, as a scattered (shard-daemon) scan and on the in-process chunk
  workers.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cloud import FederatedCloud
from repro.core.parallel import ShardedCloud
from repro.core.roles import QueryClient
from repro.core.sknn_basic import SkNNBasic, packing_slots
from repro.core.sknn_shard import ShardScanProtocol, shard_bounds, shard_table
from repro.crypto.backend import available_backends, set_backend
from repro.crypto.paillier import slots
from repro.db.encrypted_table import EncryptedTable
from repro.db.knn import LinearScanKNN, squared_euclidean
from repro.db.schema import Schema
from repro.db.table import Table
from repro.exceptions import EncryptionError
from repro.network.party import TwoPartySetting
from repro.protocols.base import pipeline_chunks
from repro.protocols.ssed import (SecureSquaredEuclideanDistance,
                                  difference_width)
from tests.property.conftest import cached_keypair

on_every_backend = pytest.mark.parametrize("backend_name",
                                           available_backends())


def round_trip(keypair, values, width):
    public, private = keypair.public_key, keypair.private_key
    packs = public.pack(public.encrypt_batch(values), width)
    assert len(packs) == -(-len(values) // slots(public.key_size, width))
    return public.unpack(private.decrypt_residue_batch(packs), width,
                         len(values))


@on_every_backend
@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("width", [1, 9, 46, 47])
def test_every_slot_count_round_trips_at_the_extremes(backend_name, bits,
                                                      width):
    keypair = cached_keypair(bits)
    per_pack = slots(bits, width)
    assert per_pack == (bits - 1) // width >= 1
    top = (1 << width) - 1
    set_backend(backend_name)
    try:
        for count in range(1, per_pack + 1):
            for values in ([top] * count, [0] * count,
                           [top if i % 2 else 0 for i in range(count)]):
                assert round_trip(keypair, values, width) == values
        # several packs, the last one partial
        values = [top, 0] * per_pack + [top]
        assert round_trip(keypair, values, width) == values
    finally:
        set_backend(None)


@on_every_backend
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_slots_round_trip(backend_name, data):
    bits = data.draw(st.sampled_from([128, 256]))
    width = data.draw(st.integers(1, bits - 1))
    per_pack = slots(bits, width)
    values = data.draw(st.lists(
        st.sampled_from([0, (1 << width) - 1])
        | st.integers(0, (1 << width) - 1),
        min_size=1, max_size=3 * per_pack))
    set_backend(backend_name)
    try:
        assert round_trip(cached_keypair(bits), values, width) == values
    finally:
        set_backend(None)


def test_pack_counts_one_shift_per_folded_value():
    keypair = cached_keypair()
    public = keypair.public_key
    ciphertexts = public.encrypt_batch(list(range(7)))
    public.counter.reset()
    packs = public.pack(ciphertexts, 46)  # two slots at K=128
    assert len(packs) == 4
    assert public.counter.exponentiations == 7 - 4
    assert public.counter.homomorphic_additions == 7 - 4


def test_slots_wider_than_the_key_are_refused():
    public = cached_keypair().public_key
    assert slots(128, 127) == 1 and slots(128, 128) == 0
    with pytest.raises(EncryptionError):
        public.pack(public.encrypt_batch([1]), 128)
    with pytest.raises(EncryptionError):
        public.unpack([1], 128, 1)


# -- SSED and SkNN_b at the pack boundaries -------------------------------------
MAXIMUM = 15  # a = 4: w = 46, 5 slots at K=256, 2 at K=128

#: (key bits, n, m): single records; one chunk crossing record boundaries;
#: pipelined halves of slots - 1, slots and slots + 1 differences; at K=128
#: also n around the 15 distance slots of m = 1 (l = 8)
SHAPES = [
    (256, 1, 4), (256, 1, 5), (256, 1, 6),
    (256, 2, 2), (256, 3, 2),
    (256, 8, 1), (256, 10, 1), (256, 12, 1), (256, 4, 3),
    (128, 1, 1), (128, 1, 2), (128, 1, 3),
    (128, 4, 1), (128, 14, 1), (128, 15, 1), (128, 16, 1),
]


def boundary_table(n: int, m: int, seed: int) -> Table:
    rng = Random(seed)
    rows = [[rng.choice([0, MAXIMUM, rng.randrange(MAXIMUM + 1)])
             for _ in range(m)] for _ in range(n)]
    rows[0] = [0] * m
    rows[-1] = [MAXIMUM] * m
    return Table.from_rows(Schema.uniform(m, MAXIMUM), rows)


def test_the_shapes_hit_the_pack_boundaries():
    for bits, n, m in SHAPES:
        ssed_slots, _ = packing_slots(
            bits, boundary_table(n, m, 0).schema)
        assert ssed_slots == slots(bits, difference_width(bits, 4))
    halves = {(bits, len(chunk) * m - slots(bits, difference_width(bits, 4)))
              for bits, n, m in SHAPES
              for chunk in pipeline_chunks(range(n))}
    assert {(256, -1), (256, 0), (256, 1), (128, -1), (128, 0),
            (128, 1)} <= halves


@pytest.mark.parametrize("bits, n, m", SHAPES)
def test_ssed_distances_equal_the_oracle(bits, n, m):
    keypair = cached_keypair(bits)
    table = boundary_table(n, m, seed=n * 10 + m)
    setting = TwoPartySetting.create(keypair, rng=Random(n + m))
    public = keypair.public_key
    for query in ([0] * m, [MAXIMUM] * m):
        records = [public.encrypt_vector(list(row.values), rng=Random(i))
                   for i, row in enumerate(table.records)]
        distances = SecureSquaredEuclideanDistance(setting).run_many(
            public.encrypt_vector(query, rng=Random(5)), records,
            table.schema.attribute_bit_length())
        assert keypair.private_key.decrypt_batch(distances) == [
            squared_euclidean(row.values, query) for row in table.records]


def scattered_basic(cloud, encrypted_table, keypair, shards: int):
    """SkNN_b whose scan runs on in-process shard protocols, one per
    :func:`shard_bounds` slice (the coordinator placement)."""
    protocol = SkNNBasic(cloud)
    shard_protocols = []
    for index in range(shards):
        shard_cloud = FederatedCloud.deploy(keypair, rng=Random(80 + index))
        shard_cloud.c1.host_database(
            shard_table(encrypted_table, index, shards)[0])
        shard_protocols.append(ShardScanProtocol(
            shard_cloud, party=f"C1-shard{index}"))
    protocol.scan = lambda query: [
        distance for shard in shard_protocols
        for distance in shard.run(query)]
    return protocol


@pytest.mark.parametrize("mode", ["serial", "scattered", "chunk-workers"])
@pytest.mark.parametrize("bits, n, m", SHAPES)
def test_sknn_basic_answers_equal_the_oracle(mode, bits, n, m):
    keypair = cached_keypair(bits)
    table = boundary_table(n, m, seed=n * 10 + m + 1)
    encrypted_table = EncryptedTable.encrypt_table(
        table, keypair.public_key, rng=Random(3))
    cloud = FederatedCloud.deploy(keypair, rng=Random(4))
    cloud.c1.host_database(encrypted_table)
    client = QueryClient(keypair.public_key, m, rng=Random(5))
    k = min(2, n)
    shards = min(2, n)
    if mode == "serial":
        protocol = SkNNBasic(cloud)
    elif mode == "scattered":
        assert len(shard_bounds(n, shards)) == shards
        protocol = scattered_basic(cloud, encrypted_table, keypair, shards)
    else:
        protocol = ShardedCloud(cloud, shards=shards, workers=1,
                                backend="serial")
    try:
        for query in ([0] * m, [MAXIMUM] * m):
            neighbours = client.reconstruct(
                protocol.run(client.encrypt_query(query), k))
            expected = [neighbour.squared_distance for neighbour
                        in LinearScanKNN(table).query(query, k)]
            assert sorted(squared_euclidean(record, query)
                          for record in neighbours) == expected
    finally:
        getattr(protocol, "close", lambda: None)()
