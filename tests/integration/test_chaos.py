"""Chaos suite: the distributed runtime under injected failures.

The acceptance bar for the resilience layer: an end-to-end SkNN_m query
across two real daemon processes must return **bit-identical** answers to
the in-memory serial stack while the chaos harness injects

(a) seeded frame drops and corruption on the C1<->C2 peer link,
(b) a SIGKILL of the C2 daemon followed by a supervisor restart in the
    middle of a provisioned session, and
(c) a connection reset on Bob's control link to C1.

A query against an unreachable C2 must fail *fast* with a typed, retriable
error — never hang.  Every scenario is driven by a seeded
:class:`~repro.resilience.chaos.ChaosSchedule` whose faults are confined to
a finite frame window, so the retry layer provably converges to a clean run.
"""

from __future__ import annotations

import os
import time
from random import Random

import pytest

from repro.core.roles import DataOwner, QueryClient
from repro.db.datasets import synthetic_uniform
from repro.db.knn import LinearScanKNN
from repro.exceptions import DeadlineExceeded, PeerUnavailable
from repro.resilience import ChaosProxy, ChaosSchedule, RetryPolicy, is_retriable
from repro.telemetry import metrics as telemetry_metrics
from repro.transport.client import RemoteCloud
from repro.transport.supervisor import LocalSupervisor

KEY_BITS = int(os.environ.get("REPRO_DISTRIBUTED_BITS", "256"))

N_RECORDS = 10
DIMENSIONS = 2
DISTANCE_BITS = 7
QUERIES = ([3, 4], [6, 1])
K = 2

#: short io deadline so a dropped peer frame surfaces in seconds, not the
#: production default of two minutes
IO_DEADLINE = 5.0
#: client-side retry schedule used by every recovery scenario
RETRY = RetryPolicy(max_attempts=6, base_delay_seconds=0.05, jitter=0.5)
REQUEST_DEADLINE = 60.0


@pytest.fixture(scope="module")
def dataset():
    return synthetic_uniform(n_records=N_RECORDS, dimensions=DIMENSIONS,
                             distance_bits=DISTANCE_BITS, seed=5)


@pytest.fixture(scope="module")
def owner(dataset):
    return DataOwner(dataset, key_size=KEY_BITS, rng=Random(20140709))


_serial_cache: dict[str, list] = {}


def serial_answers(owner, dataset, mode):
    """Reference answers from the in-memory (serial) protocol stack."""
    if mode in _serial_cache:
        return _serial_cache[mode]
    from repro.core.cloud import FederatedCloud

    cloud = FederatedCloud.deploy(owner.keypair, rng=Random(31))
    cloud.c1.host_database(owner.encrypt_database())
    client = QueryClient(owner.public_key, dataset.dimensions, rng=Random(32))
    if mode == "secure":
        from repro.core.sknn_secure import SkNNSecure
        protocol = SkNNSecure(cloud, distance_bits=owner.distance_bit_length())
    else:
        from repro.core.sknn_basic import SkNNBasic
        protocol = SkNNBasic(cloud)
    answers = []
    for query in QUERIES:
        shares = protocol.run(client.encrypt_query(query), K)
        answers.append(client.reconstruct(shares))
    _serial_cache[mode] = answers
    return answers


def counter_total(name: str) -> float:
    entry = telemetry_metrics.get_registry().snapshot().get(name)
    return sum(entry["values"].values()) if entry else 0.0


def provision_through(remote: RemoteCloud, owner: DataOwner) -> None:
    remote.provision(owner.keypair, owner.encrypt_database(),
                     distance_bits=owner.distance_bit_length(), seed=11)


class TestPeerLinkChaos:
    """(a) Seeded drops + corruption on the C1<->C2 protocol link."""

    def test_sknn_m_bit_identical_under_peer_link_faults(self, owner,
                                                         dataset):
        expected = serial_answers(owner, dataset, "secure")
        oracle = LinearScanKNN(dataset)
        retries_before = counter_total("repro_retries_total")
        with LocalSupervisor(io_deadline=IO_DEADLINE) as sup:
            # Frame 0 in each direction is the (unretried) provisioning
            # hello; every later frame is fair game.
            forward = ChaosSchedule.from_seed(
                1401, window=16, drops=1, corrupts=1, first_frame=2)
            backward = ChaosSchedule.from_seed(
                1402, window=16, drops=1, first_frame=2)
            with ChaosProxy(sup.addresses["c2"], forward=forward,
                            backward=backward, label="c1-c2") as proxy:
                remote = RemoteCloud(sup.addresses["c1"],
                                     sup.addresses["c2"],
                                     retry=RETRY,
                                     request_deadline=REQUEST_DEADLINE,
                                     rng=Random(77))
                # C1 must dial C2 through the proxy; Bob's own fetch
                # connection to C2 stays direct (the trust boundary).
                remote.c2_address = proxy.address
                try:
                    provision_through(remote, owner)
                    client = QueryClient(owner.public_key,
                                         dataset.dimensions, rng=Random(33))
                    for query, reference in zip(QUERIES, expected):
                        shares, report = remote.query(
                            client.encrypt_query(query), K, mode="secure")
                        neighbors = client.reconstruct(shares)
                        assert neighbors == reference, (
                            "chaos-exposed answer differs from the serial "
                            "stack")
                        assert neighbors == [
                            r.record.values for r in oracle.query(query, K)]
                finally:
                    remote.close()
                assert proxy.events, "the schedule must actually fire"
        # The recovery was driven by the retry layer and is observable.
        assert counter_total("repro_retries_total") > retries_before
        assert counter_total("repro_chaos_faults_total") > 0


class TestDaemonCrashRecovery:
    """(b) SIGKILL of C2 + supervisor restart, mid-provisioned-session."""

    def test_c2_kill_and_restart_recovers_bit_identical(self, owner,
                                                        dataset):
        expected = serial_answers(owner, dataset, "secure")
        with LocalSupervisor(io_deadline=IO_DEADLINE) as sup:
            remote = sup.provision_from_owner(
                owner, seed=11, retry=RETRY,
                request_deadline=REQUEST_DEADLINE, rng=Random(78))
            client = QueryClient(owner.public_key, dataset.dimensions,
                                 rng=Random(34))
            shares, _ = remote.query(client.encrypt_query(QUERIES[0]), K,
                                     mode="secure")
            assert client.reconstruct(shares) == expected[0]

            sup.kill("c2")
            address = sup.restart_role("c2")
            assert address == sup.addresses["c2"], (
                "a restarted daemon must come back on its previous port")
            # The restarted C2 lost the private key; the retry layer's
            # between-attempt hook re-provisions it transparently.
            shares, _ = remote.query(client.encrypt_query(QUERIES[1]), K,
                                     mode="secure")
            assert client.reconstruct(shares) == expected[1]
            assert sup.restarts["c2"] == 1
            assert counter_total("repro_daemon_restarts_total") >= 1


class TestBobConnectionReset:
    """(c) Bob's control link to C1 is reset mid-query; he reconnects."""

    def test_query_survives_a_connection_reset(self, owner, dataset):
        expected = serial_answers(owner, dataset, "secure")
        with LocalSupervisor(io_deadline=IO_DEADLINE) as sup:
            # Forward frames through the proxy: 0 = hello, 1 = provision,
            # 2 = the first transport.query — reset exactly there.
            schedule = ChaosSchedule(resets=frozenset({2}))
            with ChaosProxy(sup.addresses["c1"], forward=schedule,
                            label="bob-c1") as proxy:
                remote = RemoteCloud(proxy.address, sup.addresses["c2"],
                                     retry=RETRY,
                                     request_deadline=REQUEST_DEADLINE,
                                     rng=Random(80))
                try:
                    provision_through(remote, owner)
                    client = QueryClient(owner.public_key,
                                         dataset.dimensions, rng=Random(36))
                    shares, _ = remote.query(client.encrypt_query(QUERIES[0]),
                                             K, mode="secure")
                    assert client.reconstruct(shares) == expected[0]
                finally:
                    remote.close()
                assert remote.c1.reconnects >= 1, (
                    "the client must have re-dialled after the reset")
                assert any(event["action"] == "reset"
                           for event in proxy.events)


class TestFailFast:
    """An unreachable C2 yields a typed error within the deadline budget,
    never a hang."""

    def test_unreachable_c2_fails_fast_and_typed(self, owner, dataset):
        configured = 8.0
        with LocalSupervisor(io_deadline=IO_DEADLINE) as sup:
            remote = sup.provision_from_owner(
                owner, seed=11,
                retry=RetryPolicy(max_attempts=2, base_delay_seconds=0.05,
                                  jitter=0.0),
                request_deadline=configured, rng=Random(81))
            client = QueryClient(owner.public_key, dataset.dimensions,
                                 rng=Random(37))
            sup.kill("c2")
            started = time.monotonic()
            with pytest.raises((PeerUnavailable, DeadlineExceeded)) as info:
                remote.query(client.encrypt_query(QUERIES[0]), K,
                             mode="secure")
            elapsed = time.monotonic() - started
            assert elapsed < 2 * configured, (
                f"failed after {elapsed:.1f}s — not fast failure")
            assert is_retriable(info.value), (
                "the caller must be told a retry could help")
            remote.close()
