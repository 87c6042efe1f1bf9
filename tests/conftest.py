"""Shared pytest fixtures for the SkNN reproduction test-suite.

Key generation is by far the slowest part of the test-suite setup, so key
pairs are generated once per session (per size) and shared.  Protocol
correctness does not depend on the key size as long as plaintexts stay far
below ``N``, so tests default to small 128/256-bit keys; the paper-scale key
sizes (512/1024) are exercised by the benchmark harness instead.

All fixtures that involve randomness are seeded so the suite is deterministic.
"""

from __future__ import annotations

import socket
from random import Random

import pytest

from repro.core.cloud import FederatedCloud
from repro.crypto.paillier import PaillierKeyPair, generate_keypair
from repro.db.datasets import (
    heart_disease_example_query,
    heart_disease_table,
    synthetic_uniform,
)
from repro.db.encrypted_table import EncryptedTable
from repro.network.party import TwoPartySetting
from repro.transport.mux import MuxChannel, MuxConnection
from repro.transport.wire import WireCodec

#: Key sizes used throughout the test-suite (bits).
SMALL_KEY_BITS = 128
MEDIUM_KEY_BITS = 256


def socket_channel_pair(codec: WireCodec, io_deadline: float | None = None
                        ) -> tuple[MuxChannel, MuxChannel]:
    """A connected (C1 side, C2 side) channel pair over a real socket pair.

    Each side is the default (``None``) context of its own
    :class:`MuxConnection` with the reader thread running — the socket
    channel a party speaks when it opens no per-query contexts.  Tear a side
    down with ``channel.connection.close()``, which shuts its socket.
    """
    channels = []
    for sock, local, remote in zip(socket.socketpair(), ("C1", "C2"),
                                   ("C2", "C1")):
        connection = MuxConnection(sock, codec, local, remote,
                                   io_deadline=io_deadline)
        channels.append(connection.channel(None))
        connection.start_reader()
    return channels[0], channels[1]


# ---------------------------------------------------------------------------
# Key pairs (session-scoped: generated once)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def small_keypair() -> PaillierKeyPair:
    """A deterministic 128-bit Paillier key pair (fast, for unit tests)."""
    return generate_keypair(SMALL_KEY_BITS, Random(20140707))


@pytest.fixture(scope="session")
def medium_keypair() -> PaillierKeyPair:
    """A deterministic 256-bit Paillier key pair (for integration tests)."""
    return generate_keypair(MEDIUM_KEY_BITS, Random(20140708))


@pytest.fixture()
def public_key(small_keypair: PaillierKeyPair):
    """Public half of the small key pair."""
    return small_keypair.public_key


@pytest.fixture()
def private_key(small_keypair: PaillierKeyPair):
    """Private half of the small key pair."""
    return small_keypair.private_key


# ---------------------------------------------------------------------------
# Protocol settings
# ---------------------------------------------------------------------------

@pytest.fixture()
def setting(small_keypair: PaillierKeyPair) -> TwoPartySetting:
    """A fresh two-party setting (C1/C2) over the small key pair."""
    return TwoPartySetting.create(small_keypair, rng=Random(7))


@pytest.fixture()
def medium_setting(medium_keypair: PaillierKeyPair) -> TwoPartySetting:
    """A fresh two-party setting over the 256-bit key pair."""
    return TwoPartySetting.create(medium_keypair, rng=Random(11))


@pytest.fixture()
def rng() -> Random:
    """A deterministic random generator for per-test randomness."""
    return Random(12345)


# ---------------------------------------------------------------------------
# Databases
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def heart_table():
    """The paper's Table 1 without the diagnosis column (9 attributes)."""
    return heart_disease_table(include_diagnosis=False)


@pytest.fixture(scope="session")
def heart_query():
    """The Example 1 query record."""
    return heart_disease_example_query()


@pytest.fixture(scope="session")
def tiny_table():
    """A small synthetic table (10 records, 3 attributes, l=8)."""
    return synthetic_uniform(n_records=10, dimensions=3, distance_bits=8, seed=42)


@pytest.fixture()
def deployed_cloud(small_keypair: PaillierKeyPair, tiny_table) -> FederatedCloud:
    """A federated cloud already hosting the encrypted tiny table."""
    cloud = FederatedCloud.deploy(small_keypair, rng=Random(99))
    encrypted = EncryptedTable.encrypt_table(tiny_table, small_keypair.public_key,
                                             rng=Random(100))
    cloud.c1.host_database(encrypted)
    return cloud
