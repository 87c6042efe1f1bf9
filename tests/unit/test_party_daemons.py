"""Role and kind boundaries of the party daemons, on in-process daemons.

No subprocess is spawned, so this module runs in CI's tier-1 step: each
test starts a :class:`C1Daemon`/:class:`C2Daemon` on an ephemeral port in
this process and talks to it over a real control connection.
"""

from __future__ import annotations

import gc
import socket
import threading
import time
from random import Random

import pytest

from repro import cli
from repro.core.roles import DataOwner
from repro.core.sknn_base import SkNNRunReport
from repro.core.sknn_shard import shard_table
from repro.crypto.serialization import private_key_to_dict
from repro.db.datasets import synthetic_uniform
from repro.exceptions import (
    ChannelError,
    ConfigurationError,
    PeerUnavailable,
)
from repro.network.channel import Message
from repro.network.stats import ProtocolRunStats
from repro.transport.client import DaemonClient
from repro.transport.daemon import C1Daemon, C2Daemon
from repro.transport.framing import recv_frame, send_frame
from repro.transport.mux import MuxConnection
from repro.transport.wire import WireCodec
from tests.conftest import SMALL_KEY_BITS


@pytest.fixture
def serve():
    """Start daemons in this process; hand back a connected client each."""
    started: list = []

    def start(daemon, codec: WireCodec | None = None) -> DaemonClient:
        daemon.start()
        client = DaemonClient((daemon.host, daemon.port),
                              codec or WireCodec(), request_deadline=10.0)
        started.extend([client, daemon])
        return client

    yield start
    for resource in started:
        resource.close()


@pytest.fixture
def peer(serve, small_keypair):
    """A cloud-peer mux link to a provisioned C2 daemon."""
    codec = WireCodec(small_keypair.public_key)
    client = serve(C2Daemon(io_deadline=5.0), codec)
    client.request("transport.provision", {
        "private_key": private_key_to_dict(small_keypair.private_key),
        "distance_bits": 6, "seed": 3})
    sock = socket.create_connection(client.address, timeout=5)
    send_frame(sock, codec.encode_message(Message(
        sender="C1", recipient="C2", tag="transport.hello",
        payload={"peer": "cloud"})))
    assert codec.decode_message(
        recv_frame(sock)).tag == "transport.hello_ok"
    connection = MuxConnection(sock, codec, "C1", "C2", io_deadline=5.0)
    connection.start_reader()
    yield connection
    connection.close()


def assert_refused_but_connected(client: DaemonClient, tag: str, payload,
                                 error: type, match: str) -> None:
    """A typed, non-retriable refusal that leaves the connection usable."""
    with pytest.raises(error, match=match) as raised:
        client.request(tag, payload)
    assert type(raised.value) is error
    assert not getattr(raised.value, "retriable", False)
    assert client.request("transport.ping", None)["role"] in ("c1", "c2")
    assert client.reconnects == 0


class TestRoleState:
    def test_each_role_holds_only_its_own_state(self):
        c1, c2 = C1Daemon(), C2Daemon()
        for name in ("mailbox", "_private_key", "_serve_peer_context",
                     "_build_p2_registry"):
            assert not hasattr(c1, name), name
        for name in ("_table", "_peer_pool", "_reply_cache", "epoch",
                     "shard_index", "shard_count", "_shard_addresses",
                     "_run_leased"):
            assert not hasattr(c2, name), name
        assert (c1.role, c2.role) == ("c1", "c2")


class TestRoleRefusals:
    @pytest.mark.parametrize(
        "tag", ["transport.query", "transport.scan"])
    def test_c2_refuses_c1_tags(self, serve, tag):
        assert_refused_but_connected(
            serve(C2Daemon()), tag, {"k": 1, "query": []},
            ChannelError, "unsupported control tag")

    def test_c1_refuses_fetch_share(self, serve):
        assert_refused_but_connected(
            serve(C1Daemon()), "transport.fetch_share", {"delivery_id": 1},
            ChannelError, "unsupported control tag")

    def test_cloud_hello_to_c1_is_dropped(self, serve):
        client = serve(C1Daemon())
        codec = WireCodec()
        with socket.create_connection(client.address, timeout=5) as sock:
            send_frame(sock, codec.encode_message(Message(
                sender="C1", recipient="C1", tag="transport.hello",
                payload={"peer": "cloud", "epoch": "e"})))
            assert recv_frame(sock) is None  # closed without a hello_ok

    def test_shard_daemon_refuses_queries(self, serve):
        assert_refused_but_connected(
            serve(C1Daemon(shard_index=0, shard_count=2)), "transport.query",
            {"query_id": "q", "k": 1, "query": []},
            ConfigurationError, "shard daemons serve transport.scan only")

    @pytest.mark.parametrize("daemon", [
        C1Daemon, lambda: C1Daemon(shard_index=0, shard_count=2), C2Daemon,
    ], ids=["c1", "shard", "c2"])
    def test_no_daemon_serves_query_batch(self, serve, daemon):
        """One query request shape: a batch is refused like any unknown
        tag, and the connection stays usable."""
        assert_refused_but_connected(
            serve(daemon()), "transport.query_batch",
            {"batch_id": "b", "ks": [1], "queries": [[]]},
            ChannelError, "unsupported control tag")

    def test_plain_c1_refuses_scans(self, serve):
        assert_refused_but_connected(
            serve(C1Daemon()), "transport.scan", {"query": []},
            ConfigurationError,
            "transport.scan is only served by shard daemons")


class TestShardIdentity:
    def party(self, *flags: str):
        return cli._build_party(cli.build_parser().parse_args(
            ["party", "--listen", "127.0.0.1:0", *flags]))

    def test_only_c1_daemons_can_be_shards(self):
        with pytest.raises(ConfigurationError, match="only C1 daemons"):
            self.party("--role", "c2", "--shard-index", "0",
                       "--shard-count", "2")

    def test_shard_flags_go_together(self):
        with pytest.raises(ConfigurationError, match="go together"):
            self.party("--role", "c1", "--shard-index", "0")

    def test_role_flag_picks_the_class(self):
        assert type(self.party("--role", "c2")) is C2Daemon
        shard = self.party("--role", "c1", "--shard-index", "1",
                           "--shard-count", "2", "--peer-connections", "3")
        assert type(shard) is C1Daemon
        assert (shard.shard_index, shard.peer_connections) == (1, 3)

    def test_provision_must_match_the_daemons_shard_identity(self, serve):
        owner = DataOwner(
            synthetic_uniform(n_records=4, dimensions=2, distance_bits=5,
                              seed=1),
            key_size=SMALL_KEY_BITS, rng=Random(5))
        codec = WireCodec()
        codec.public_key = owner.public_key
        slice_table, start = shard_table(owner.encrypt_database(), 1, 2)
        payload = {"encrypted_table": slice_table.to_dict(),
                   "c2_address": ["127.0.0.1", 9], "shard_index": 1,
                   "shard_count": 2, "start_index": start}
        assert_refused_but_connected(
            serve(C1Daemon(), codec), "transport.provision", payload,
            ConfigurationError, "shard provision sent to a C1 daemon")
        assert_refused_but_connected(
            serve(C1Daemon(shard_index=0, shard_count=2), codec),
            "transport.provision", payload, ConfigurationError,
            "provision payload is for shard 1/2")


class TestMalformedControlPayloads:
    def test_value_error_is_typed_and_keeps_the_connection(self, serve):
        """``float("abc")`` in a handler used to crash the connection thread,
        which the client saw as a *retriable* dropped peer."""
        assert_refused_but_connected(
            serve(C2Daemon()), "transport.profile", {"seconds": "abc"},
            ChannelError, "malformed 'transport.profile' payload")


class TestMalformedPeerFrames:
    """Hostile frames on C2's protocol tags, against an in-process daemon —
    so a context worker dying on an uncaught exception also surfaces as
    pytest's unhandled-thread-exception warning (an error in CI)."""

    @pytest.mark.parametrize("tag, build, refusal", [
        # the hardened sub-protocol handlers: refused before decryption
        ("SMIN.batch_masked_differences", lambda c: "bits, please",
         "SMIN: malformed masked-difference batch"),
        # [L, masked differences], L an int the key has room for
        ("SMIN.batch_masked_differences", lambda c: ["6", [c]],
         "SMIN: malformed masked-difference batch"),
        ("SMIN.batch_masked_differences", lambda c: [6, [c, 7]],
         "SMIN: malformed masked-difference batch"),
        # rows of L entries, the top bit and two candidates, one width
        ("SMIN.batch_comparisons", lambda c: [[1, 2]],
         "SMIN: malformed comparison batch"),
        ("SMIN.batch_comparisons",
         lambda c: [[c, c, c, c], [c, c, c, c, c]],
         "SMIN: malformed comparison batch"),
        ("SMIN.batch_comparisons", lambda c: [[c, c, c]],
         "SMIN: malformed comparison batch"),
        # SkNN_m's zero search: [beta of n, n rows of m ciphertexts]
        ("SkNNm.randomized_differences", lambda c: {"beta": c},
         "SkNNm: malformed randomized-difference batch"),
        ("SkNNm.randomized_differences", lambda c: [[c, c], [[c, c], [c]]],
         "SkNNm: malformed randomized-difference batch"),
        ("SkNNm.randomized_differences", lambda c: [[c, c], [[c, c]]],
         "SkNNm: malformed randomized-difference batch"),
        ("SkNNm.randomized_differences", lambda c: [[c, 7], [[c], [c]]],
         "SkNNm: malformed randomized-difference batch"),
        ("SkNNm.randomized_differences", lambda c: [[c]],
         "SkNNm: malformed randomized-difference batch"),
        # C2's one SkNN_b selection entry, every placement's: [k, rows] of
        # distinct-index (index, ciphertext) pairs with 1 <= k <= len(rows)
        ("SkNNb.encrypted_distances", lambda c: 7,
         "SkNNb: malformed encrypted-distance list"),
        ("SkNNb.encrypted_distances", lambda c: [0, [(0, c)]],
         "SkNNb: malformed encrypted-distance list"),
        ("SkNNb.encrypted_distances", lambda c: [2, [(0, c)]],
         "SkNNb: malformed encrypted-distance list"),
        ("SkNNb.encrypted_distances", lambda c: [1, [c]],
         "SkNNb: malformed encrypted-distance list"),
        ("SkNNb.encrypted_distances", lambda c: [1, [("0", c)]],
         "SkNNb: malformed encrypted-distance list"),
        ("SkNNb.encrypted_distances", lambda c: [1, [(0, c), (0, c)]],
         "SkNNb: malformed encrypted-distance list"),
        # the delivery step: [int delivery id, equally wide cipher rows]
        ("SkNN.masked_results", lambda c: 7, "malformed delivery"),
        ("SkNN.masked_results", lambda c: ["1", [[c]]],
         "malformed delivery"),
        ("SkNN.masked_results", lambda c: [1, [[c, c], [c]]],
         "malformed delivery"),
    ])
    def test_a_malformed_frame_is_refused_typed_and_the_context_lives_on(
            self, peer, small_keypair, tag, build, refusal):
        public = small_keypair.public_key
        channel = peer.channel("hostile")
        channel.send("C1", build(public.encrypt(1)), tag=tag)
        with pytest.raises(ChannelError, match=refusal):
            channel.receive("C1")
        # The same context's worker thread answers the next, well-formed
        # round: a two-record SkNN_b selection.
        channel.send("C1",
                     [1, [(0, public.encrypt(6)), (1, public.encrypt(2))]],
                     tag="SkNNb.encrypted_distances")
        assert channel.receive(
            "C1", expected_tag="SkNNb.topk_indices") == [1]


class TestPeerContextWorkers:
    def test_finished_context_workers_are_not_kept(self, peer, small_keypair):
        """C1 leases a fresh context per run: C2 must not keep one finished
        worker thread per answered query for the life of the connection."""
        public = small_keypair.public_key
        for index in range(40):
            channel = peer.channel(f"run-{index}")
            channel.send("C1", [1, [(0, public.encrypt(2))]],
                         tag="SkNNb.encrypted_distances")
            channel.receive("C1", expected_tag="SkNNb.topk_indices")
            channel.release()
        gc.collect()
        kept = [thread for thread in gc.get_objects()
                if isinstance(thread, threading.Thread)
                and thread.name.startswith("sknn-c2-ctx-run-")]
        # the reader prunes as each new context arrives; a released
        # context's worker may still be winding down
        assert len(kept) <= 3


class CannedShard(C1Daemon):
    """A shard daemon that answers ``transport.scan`` with a fixed reply."""

    def __init__(self, reply, delay: float = 0.0) -> None:
        super().__init__(shard_index=0, shard_count=1)
        self.reply, self.delay = reply, delay

    def _handle_scan(self, payload):
        time.sleep(self.delay)
        return self.reply


class TestShardReplies:
    def report_payload(self, records: int = 3) -> dict:
        return SkNNRunReport(
            protocol="SkNNb-shard", n_records=records, dimensions=2, k=0,
            key_size=128, distance_bits=None, wall_time_seconds=0.1,
            stats=ProtocolRunStats(protocol="SkNNb-shard")).as_payload()

    def reply(self, public_key, values) -> dict:
        return {"distances": [public_key.encrypt(value) for value in values],
                "report": self.report_payload(len(values))}

    def coordinator(self, serve, small_keypair, replies,
                    delays=(0.0, 0.0)):
        """A coordinator over one canned shard per reply, hosting a table
        as long as the shards' slices together should be (3 + 2 records)."""
        owner = DataOwner(
            synthetic_uniform(n_records=5, dimensions=2, distance_bits=5,
                              seed=1),
            keypair=small_keypair, rng=Random(5))
        coordinator = C1Daemon(io_deadline=10.0)
        coordinator.codec.public_key = owner.public_key
        coordinator._table = owner.encrypt_database()
        coordinator._shard_addresses = [
            serve(CannedShard(reply, delay)).address
            for reply, delay in zip(replies, delays)]
        return coordinator

    def test_a_slice_of_distances_and_a_report_parse(self, public_key):
        distances, report = C1Daemon._shard_reply(
            0, 3, self.reply(public_key, [4, 5, 6]))
        assert len(distances) == 3 and report.n_records == 3

    def test_anything_else_fails_typed_naming_the_shard(self, public_key):
        good = self.reply(public_key, [4, 5, 6])
        without_stats = {key: value for key, value in good["report"].items()
                         if key != "stats"}
        for reply in (None, "scanned", ["report"], {}, {"report": None},
                      {"report": good["report"]},
                      {"distances": good["distances"]},
                      dict(good, report=without_stats),
                      dict(good, report=dict(good["report"], unknown=1)),
                      dict(good, distances=good["distances"][:2]),
                      dict(good, distances=good["distances"] * 2),
                      dict(good, distances=[4, 5, 6]),
                      dict(good, distances="abc")):
            with pytest.raises(ChannelError,
                               match="shard 1 answered") as raised:
                C1Daemon._shard_reply(1, 3, reply)
            assert type(raised.value) is ChannelError, reply

    def test_replies_are_placed_by_shard_index_not_completion_order(
            self, serve, small_keypair):
        public = small_keypair.public_key
        coordinator = self.coordinator(
            serve, small_keypair,
            [self.reply(public, [10, 11, 12]), self.reply(public, [13, 14])],
            delays=(0.3, 0.0))  # shard 0 answers last
        distances, reports = coordinator._scatter_to_shards([])
        assert [small_keypair.private_key.decrypt(distance)
                for distance in distances] == [10, 11, 12, 13, 14]
        assert [report.n_records for report in reports] == [3, 2]

    def test_scatter_fails_the_query_on_a_malformed_shard_reply(
            self, serve, small_keypair):
        """A shard that answers with something else must not quietly vanish
        from the gathered distances."""
        coordinator = self.coordinator(
            serve, small_keypair,
            [self.reply(small_keypair.public_key, [1, 2, 3]),
             ["not", "a", "reply"]])
        with pytest.raises(ChannelError, match="shard 1 answered"):
            coordinator._scatter_to_shards([])

    def test_scatter_fails_the_query_on_a_short_answering_shard(
            self, serve, small_keypair):
        public = small_keypair.public_key
        coordinator = self.coordinator(
            serve, small_keypair,
            [self.reply(public, [1, 2]), self.reply(public, [3, 4])])
        with pytest.raises(ChannelError,
                           match="shard 0 answered .* slice's 3 encrypted"):
            coordinator._scatter_to_shards([])

    def test_scatter_fails_the_query_on_a_dead_shard(self, serve,
                                                     small_keypair):
        coordinator = self.coordinator(
            serve, small_keypair,
            [self.reply(small_keypair.public_key, [1, 2, 3])])
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))  # bound, never listening
            coordinator._shard_addresses.append(placeholder.getsockname())
            with pytest.raises(PeerUnavailable):
                coordinator._scatter_to_shards([])
