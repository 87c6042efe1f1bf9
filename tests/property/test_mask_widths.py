"""Short statistical masks: what C2 can decrypt and what C1 strips.

Every mask C1 later strips with a power is ``N - s`` with ``s`` of ``bits +
sigma`` bits (``sigma`` = :data:`~repro.crypto.precompute.
STATISTICAL_SECURITY`), ``bits`` the masked values' width: ``a + 1`` for
SSED's differences of ``a``-bit attributes, ``a`` for SkNN_m's extracted
records, SMIN's ``L`` for its selection candidates.  So

* every residue C2 decrypts in ``SSED.masked_differences``, ``d - s mod
  N``, lies within ``2**(a + 2 + sigma)`` of 0 mod ``N`` — short, yet
  within ``2**-sigma`` of a distribution that does not depend on ``d``;
* every strip exponent C1's kernels see — SSED's ``N - 2r``, SMIN's
  ``rho_x - rho_y``, extraction's ``N - r``, each reduced mod ``N`` — is
  below ``2**(bits + sigma + 2)``;
* answers still equal the plaintext oracle, at the domain's ends too
  (attribute values 0 and the maximum), on both bigint backends.
"""

from __future__ import annotations

import sys
from random import Random

import pytest
from hypothesis import given, strategies as st

from repro.core.cloud import FederatedCloud
from repro.core.parallel import ShardedCloud
from repro.core.roles import QueryClient
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.crypto.backend import available_backends, set_backend
from repro.crypto.paillier import PaillierPublicKey
from repro.crypto.precompute import STATISTICAL_SECURITY
from repro.db.encrypted_table import EncryptedTable
from repro.db.knn import LinearScanKNN, squared_euclidean
from repro.db.schema import Schema
from repro.db.table import Table
from tests.property.conftest import cached_keypair

SIGMA = STATISTICAL_SECURITY

on_every_backend = pytest.mark.parametrize("backend_name",
                                           available_backends())

#: (file, function, kernel) of each strip step -> the step
STRIPS = {
    ("ssed.py", "strip", "weighted_sum_batch"): "SSED",
    ("sknn_secure.py", "run", "weighted_sum_batch"): "extraction",
    ("smin.py", "strip_selections", "scalar_mul_batch"): "SMIN",
}


def record_strip_exponents(monkeypatch) -> dict[str, list[int]]:
    """The reduced exponents every strip step hands the Paillier kernels,
    by step (the kernels reduce each scalar mod ``N``)."""
    seen: dict[str, list[int]] = {name: [] for name in STRIPS.values()}

    def recorder(name):
        original = getattr(PaillierPublicKey, name)

        def recording(key, ciphertexts, scalars):
            caller = sys._getframe(1).f_code
            step = STRIPS.get((caller.co_filename.rsplit("/", 1)[-1],
                               caller.co_name, name))
            if step is not None:
                rows = scalars if name == "weighted_sum_batch" else [scalars]
                seen[step].extend(scalar % key.n for row in rows
                                  for scalar in row)
            return original(key, ciphertexts, scalars)
        return recording

    for name in ("weighted_sum_batch", "scalar_mul_batch"):
        monkeypatch.setattr(PaillierPublicKey, name, recorder(name))
    return seen


def distance_to_zero(residue: int, n: int) -> int:
    return min(residue, n - residue)


domains = st.integers(min_value=1, max_value=15).flatmap(
    lambda maximum: st.tuples(
        st.just(maximum),
        st.lists(st.lists(st.sampled_from([0, maximum])
                          | st.integers(0, maximum), min_size=2, max_size=2),
                 min_size=3, max_size=6),
        st.lists(st.sampled_from([0, maximum]), min_size=2, max_size=2)))


def run_query(mode: str, maximum: int, rows, query, seed: int, monkeypatch):
    """One SkNN query on an in-memory cloud; returns the neighbours, the
    strip exponents by step and C2's SSED residues."""
    keypair = cached_keypair()
    table = Table.from_rows(Schema.uniform(2, maximum), rows)
    cloud = FederatedCloud.deploy(keypair, rng=Random(seed))
    cloud.c1.host_database(EncryptedTable.encrypt_table(
        table, keypair.public_key, rng=Random(seed + 1)))
    protocol = (SkNNBasic(cloud) if mode == "basic" else
                SkNNSecure(cloud, table.schema.distance_bit_length()))
    client = QueryClient(keypair.public_key, 2, rng=Random(seed + 2))
    exponents = record_strip_exponents(monkeypatch)
    cloud.channel.transcript.clear()
    shares = protocol.run(client.encrypt_query(query), 2)
    residues = keypair.private_key.decrypt_residue_batch(
        [cipher for message in cloud.channel.transcript
         if message.tag == "SSED.masked_differences"
         for row in message.payload for cipher in row])
    return table, client.reconstruct(shares), exponents, residues


@on_every_backend
@pytest.mark.parametrize("mode", ["basic", "secure"])
@given(domain=domains, seed=st.integers(0, 2**16))
def test_masks_and_strips_are_short_and_answers_exact(backend_name, mode,
                                                      domain, seed):
    maximum, rows, query = domain
    set_backend(backend_name)
    monkeypatch = pytest.MonkeyPatch()
    try:
        table, neighbours, exponents, residues = run_query(
            mode, maximum, rows, query, seed, monkeypatch)
    finally:
        monkeypatch.undo()
        set_backend(None)
    n = cached_keypair().public_key.n
    a = table.schema.attribute_bit_length()
    assert a == maximum.bit_length()

    # C2's view of SSED: short residues, one per (record, attribute)
    assert len(residues) == 2 * len(rows)
    assert all(distance_to_zero(h, n) < 1 << (a + 2 + SIGMA)
               for h in residues)
    # C1's strips: short exponents at every step the mode runs
    assert len(exponents["SSED"]) == 2 * len(rows)
    assert all(e < 1 << (a + 1 + SIGMA + 2) for e in exponents["SSED"])
    if mode == "secure":
        bits = table.schema.distance_bit_length() + 1  # SMIN's widest L
        assert exponents["SMIN"] and exponents["extraction"]
        assert all(e < 1 << (bits + SIGMA + 2) for e in exponents["SMIN"])
        assert all(e < 1 << (a + SIGMA + 2)
                   for e in exponents["extraction"])
    else:
        assert exponents["SMIN"] == exponents["extraction"] == []

    expected = sorted(neighbour.squared_distance for neighbour
                      in LinearScanKNN(table).query(query, 2))
    assert sorted(squared_euclidean(record, query)
                  for record in neighbours) == expected


@on_every_backend
def test_masks_are_short_but_not_constant(backend_name, monkeypatch):
    """Two scans of one table: C2's residues differ everywhere (fresh masks),
    and they spread over many more than ``bits`` bits (not a fixed offset)."""
    set_backend(backend_name)
    try:
        views = [run_query("basic", 7, [[0, 7], [7, 0], [3, 3]], [0, 7],
                           seed, monkeypatch)[3] for seed in (1, 2)]
    finally:
        set_backend(None)
    n = cached_keypair().public_key.n
    assert all(a != b for a, b in zip(*views))
    assert max(distance_to_zero(h, n) for view in views
               for h in view) >= 1 << (3 + SIGMA - 8)


def test_sharded_scan_masks_at_the_schema_width(monkeypatch):
    """The in-process scan plan hands SSED's width to its chunk workers (the
    serial backend runs them here): their strips are short and the answer
    exact."""
    keypair = cached_keypair()
    rows, query = [[0, 15], [15, 0], [9, 4], [15, 15], [3, 3]], [0, 15]
    table = Table.from_rows(Schema.uniform(2, 15), rows)
    cloud = FederatedCloud.deploy(keypair, rng=Random(7))
    cloud.c1.host_database(EncryptedTable.encrypt_table(
        table, keypair.public_key, rng=Random(8)))
    client = QueryClient(keypair.public_key, 2, rng=Random(9))
    exponents = record_strip_exponents(monkeypatch)
    with ShardedCloud(cloud, shards=2, workers=1, backend="serial") as plan:
        shares = plan.run(client.encrypt_query(query), 2)
    assert len(exponents["SSED"]) == 2 * len(rows)
    assert all(e < 1 << (5 + SIGMA + 2) for e in exponents["SSED"])
    expected = sorted(neighbour.squared_distance for neighbour
                      in LinearScanKNN(table).query(query, 2))
    assert sorted(squared_euclidean(record, query)
                  for record in client.reconstruct(shares)) == expected
