"""Role and kind boundaries of the party daemons, what they accept at
provisioning, and what C1 computes while it waits on C2 — on in-process
daemons.

No subprocess is spawned, so this module runs in CI's tier-1 step: each
test starts a :class:`C1Daemon`/:class:`C2Daemon` on an ephemeral port in
this process and talks to it over a real control connection.
"""

from __future__ import annotations

import gc
import itertools
import socket
import threading
import time
from random import Random

import pytest

from repro import cli
from repro.core import sknn_base
from repro.core.cloud import FederatedCloud
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_base import SkNNRunReport
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.core.sknn_shard import shard_table
from repro.crypto.precompute import QueryLookahead
from repro.crypto.serialization import private_key_to_dict
from repro.db.datasets import synthetic_uniform
from repro.db.knn import LinearScanKNN
from repro.exceptions import (
    ChannelError,
    ConfigurationError,
    PeerUnavailable,
)
from repro.network.channel import Message
from repro.network.stats import ProtocolRunStats
from repro.transport.client import DaemonClient, RemoteCloud
from repro.transport.daemon import C1Daemon, C2Daemon
from repro.transport.framing import recv_frame, send_frame
from repro.transport.mux import MuxChannel, MuxConnection
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

    def test_c2_mailbox_is_journaled_exactly_with_a_state_dir(self,
                                                              tmp_path):
        plain = C2Daemon()
        plain.mailbox.put(1, [[5]])
        assert plain.mailbox.journal_records == 0
        plain.close()
        daemon = C2Daemon(state_dir=tmp_path)
        daemon.mailbox.put(1, [[5]])
        assert daemon.mailbox.journal_records == 1
        daemon.close()
        revived = C2Daemon(state_dir=tmp_path)
        assert revived.mailbox.recovered == 1
        revived.close()

    def test_c1_reply_cache_is_journaled_exactly_with_a_state_dir(
            self, tmp_path):
        plain = C1Daemon()
        plain._reply_cache.run("q-1", lambda: {"answer": 7})
        assert plain._reply_cache.journal_records == 0
        plain.close()
        daemon = C1Daemon(state_dir=tmp_path)
        daemon._reply_cache.run("q-1", lambda: {"answer": 7})
        assert daemon._reply_cache.journal_records == 1
        daemon.close()
        revived = C1Daemon(state_dir=tmp_path)
        assert revived._reply_cache.recovered == 1
        revived.close()


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


class TestProvisionedDistanceBits:
    """``l`` is checked against the key at provisioning, on both roles:
    SMIN compares ``l + 1`` bits under a mask that hides ``l + 2`` bits
    statistically, ``2^(l+2+40) <= N`` (``l <= 85`` for the 128-bit test
    modulus).  C2 builds SkNN_m for every peer context from ``l``, so an
    ``l`` it cannot compare used to fail there and hang a basic query."""

    def payloads(self, small_keypair, c2_address, distance_bits):
        owner = DataOwner(
            synthetic_uniform(n_records=4, dimensions=2, distance_bits=5,
                              seed=1),
            keypair=small_keypair, rng=Random(5))
        return {
            "c2": {"private_key": private_key_to_dict(
                small_keypair.private_key), "distance_bits": distance_bits},
            "c1": {"encrypted_table": owner.encrypt_database().to_dict(),
                   "c2_address": list(c2_address),
                   "distance_bits": distance_bits},
        }

    @pytest.mark.parametrize("distance_bits", [86, 127, 0, -1, "6", 6.0,
                                               True])
    def test_both_roles_refuse_an_l_smin_cannot_compare(
            self, serve, small_keypair, distance_bits):
        c2 = serve(C2Daemon())
        c1 = serve(C1Daemon())
        payloads = self.payloads(small_keypair, c2.address, distance_bits)
        for client in (c2, c1):
            role = client.request("transport.ping", None)["role"]
            assert_refused_but_connected(
                client, "transport.provision", payloads[role],
                ConfigurationError, "is not a positive l")
            assert not client.request("transport.ping", None)["provisioned"]

    @pytest.mark.parametrize("distance_bits", [None, 1, 85])
    def test_a_valid_l_provisions_as_before(self, serve, small_keypair,
                                            distance_bits):
        c2 = serve(C2Daemon())
        c1 = serve(C1Daemon())
        payloads = self.payloads(small_keypair, c2.address, distance_bits)
        assert c2.request("transport.provision",
                          payloads["c2"])["role"] == "c2"
        assert c1.request("transport.provision",
                          payloads["c1"])["role"] == "c1"
        for client in (c2, c1):
            assert client.request("transport.ping", None)["provisioned"]


class Lookaheads:
    """Seeded queries on in-process daemons, recording every C1 run's
    :class:`QueryLookahead` s (a secure run's second one holds its DGK
    re-randomizers).

    ``delay`` makes C2 answer each step that many seconds late; ``instant``
    makes C1 see every reply as already queued, as if C2 answered at once.
    Every query runs on freshly provisioned daemons with delivery ids from
    1, so two runs of one query are comparable frame for frame.
    """

    QUERY = [1, 2, 3]
    K = 2

    def __init__(self, serve, keypair, monkeypatch, sharded: bool) -> None:
        self.monkeypatch = monkeypatch
        self.table = synthetic_uniform(n_records=8, dimensions=3,
                                       distance_bits=6, seed=1)
        owner = DataOwner(self.table, keypair=keypair, rng=Random(5))
        self.keypair = keypair
        self.database = owner.encrypt_database()
        self.client = QueryClient(owner.public_key, 3, rng=Random(9))
        self.encrypted_query = self.client.encrypt_query(self.QUERY)
        self.delay = 0.0
        self.runs: list[dict] = []
        build = C1Daemon._build_query_protocol
        registry = C2Daemon._build_p2_registry

        def recording(daemon, channel, mode, k=0):
            protocol = build(daemon, channel, mode, k)
            run = {"shard": daemon.shard_index, "early": 0,
                   "lookaheads": [engine for engine in (
                       protocol.cloud.engine, protocol.cloud.c1.dgk_engine)
                       if engine is not None]}

            def checked(prefetch):
                def check():
                    # C1 has sent only the trace window's opening frame
                    if all(tag.startswith("telemetry.")
                           for tag in channel.traffic["C1"].tag_messages):
                        run["early"] += 1
                    return prefetch()
                return check

            for lookahead in run["lookaheads"]:
                lookahead.prefetch = checked(lookahead.prefetch)
            self.runs.append(run)
            return protocol

        def delayed(daemon, channel):
            def late(handler):
                def answer():
                    time.sleep(self.delay)
                    return handler()
                return answer
            return {tag: late(handler) for tag, handler
                    in registry(daemon, channel).items()}

        monkeypatch.setattr(C1Daemon, "_build_query_protocol", recording)
        monkeypatch.setattr(C2Daemon, "_build_p2_registry", delayed)
        c2 = serve(C2Daemon(io_deadline=10.0))
        shards = ([serve(C1Daemon(shard_index=index, shard_count=2,
                                  io_deadline=10.0)).address
                   for index in range(2)] if sharded else None)
        self.c1 = C1Daemon(io_deadline=10.0, slow_query_seconds=0.0)
        c1 = serve(self.c1)
        self.remote = RemoteCloud(c1.address, c2.address,
                                  request_deadline=30.0,
                                  shard_addresses=shards)

    def query(self, mode: str, delay: float = 0.0, instant: bool = False):
        self.delay = delay
        self.runs.clear()
        with self.monkeypatch.context() as patch:
            patch.setattr(sknn_base, "_DELIVERY_IDS", itertools.count(1))
            if instant:
                patch.setattr(MuxChannel, "pending",
                              lambda channel, recipient: 1)
            self.remote.provision(self.keypair, self.database,
                                  distance_bits=6, seed=3)
            shares, report = self.remote.query(self.encrypted_query, self.K,
                                               mode=mode)
        assert self.client.reconstruct(shares) == [
            result.record.values
            for result in LinearScanKNN(self.table).query(self.QUERY,
                                                          self.K)]
        return shares, report

    def close(self) -> None:
        self.remote.close()


@pytest.fixture
def lookaheads(serve, small_keypair, monkeypatch):
    deployments: list[Lookaheads] = []

    def deploy(sharded: bool = False) -> Lookaheads:
        deployments.append(
            Lookaheads(serve, small_keypair, monkeypatch, sharded))
        return deployments[-1]

    yield deploy
    for deployment in deployments:
        deployment.close()


class TestQueryLookahead:
    """A C1 without a provisioned engine computes its query's fresh
    factors while it waits on C2 — over real mux links, on a plain C1 and
    on a coordinator with its two shards."""

    @pytest.mark.parametrize("mode", ["basic", "secure"])
    def test_a_plain_c1_computes_in_its_waits_what_its_query_draws(
            self, lookaheads, mode):
        deployment = lookaheads()
        _, report = deployment.query(mode, delay=0.01)
        [run] = deployment.runs
        assert len(run["lookaheads"]) == (2 if mode == "secure" else 1)
        assert run["early"] == 0
        for lookahead in run["lookaheads"]:
            assert isinstance(lookahead, QueryLookahead)
            assert lookahead.offline_encryptions == lookahead.hits > 0
            assert lookahead.remaining() == {"obfuscators": 0}
            # the budget is exactly what the query drew
            assert (lookahead.hits + lookahead.misses
                    == lookahead.config.obfuscators)
        assert sum(lookahead.config.obfuscators
                   for lookahead in run["lookaheads"]) \
            == report.stats.c1_encryptions
        ready = sum(lookahead.hits for lookahead in run["lookaheads"])
        assert report.stats.extra["factors_ready"] == ready
        [logged] = deployment.c1.slow_log.snapshot()["recent"]
        assert logged["factors_ready"] == ready

    @pytest.mark.parametrize("mode", ["basic", "secure"])
    def test_a_coordinator_computes_past_its_scan_and_a_shard_nothing(
            self, lookaheads, mode):
        deployment = lookaheads(sharded=True)
        _, report = deployment.query(mode, delay=0.01)
        shards = [run for run in deployment.runs if run["shard"] is not None]
        [coordinator] = [run for run in deployment.runs
                         if run["shard"] is None]
        assert sorted(run["shard"] for run in shards) == [0, 1]
        for run in deployment.runs:
            assert run["early"] == 0
            for lookahead in run["lookaheads"]:
                assert lookahead.offline_encryptions == lookahead.hits
                assert lookahead.remaining() == {"obfuscators": 0}
                assert (lookahead.hits + lookahead.misses
                        == lookahead.config.obfuscators)
        # a shard's one wait comes after its last draw, and it compares
        # nothing
        assert all(len(run["lookaheads"]) == 1
                   and run["lookaheads"][0].offline_encryptions == 0
                   for run in shards)
        assert len(coordinator["lookaheads"]) == (
            2 if mode == "secure" else 1)
        assert all(lookahead.hits > 0
                   for lookahead in coordinator["lookaheads"])
        assert report.stats.extra["factors_ready"] == sum(
            lookahead.hits for lookahead in coordinator["lookaheads"])
        assert report.stats.c1_encryptions == sum(
            lookahead.config.obfuscators for run in deployment.runs
            for lookahead in run["lookaheads"])

    @pytest.mark.parametrize("sharded", [False, True])
    @pytest.mark.parametrize("mode", ["basic", "secure"])
    def test_the_lookahead_changes_no_value_count_or_byte(
            self, lookaheads, mode, sharded):
        """C2 late, on time, and as if instant: the same masks for Bob,
        the same counts, the same bytes — factors come from a stream of
        their own, so how many were computed ahead moves no mask.

        With shards, C2 seeds each context's rng in the order the contexts
        reach it, and the two shards' scans reach it together, so the
        ciphertexts — and their hex lengths — of a sharded run are not
        fixed by the seed; there the count of ciphertexts stands in for
        the bytes."""
        deployment = lookaheads(sharded)
        runs = []
        for options in ({"delay": 0.01}, {}, {"instant": True}):
            shares, report = deployment.query(mode, **options)
            stats = report.stats
            runs.append((shares.masks_from_c1, stats.c1_encryptions,
                         stats.c1_exponentiations, stats.c2_encryptions,
                         stats.c2_decryptions, stats.messages,
                         stats.ciphertexts_exchanged,
                         None if sharded else stats.bytes_transferred))
            ready = sum(lookahead.hits for run in deployment.runs
                        for lookahead in run["lookaheads"])
            assert ready > 0 if "delay" in options else True
            assert ready == 0 if "instant" in options else True
        assert runs[0] == runs[1] == runs[2]

    def test_repro_query_connect_reports_the_ready_factors(self, serve,
                                                          capsys):
        c2 = serve(C2Daemon(io_deadline=10.0))
        c1 = serve(C1Daemon(io_deadline=10.0))
        assert cli.main([
            "query", "--n", "8", "--m", "3", "--k", "2", "--l", "6",
            "--key-size", str(SMALL_KEY_BITS), "--mode", "secure",
            "--connect-c1", "%s:%d" % c1.address,
            "--connect-c2", "%s:%d" % c2.address]) == 0
        assert "C1 factors ready when drawn: " in capsys.readouterr().out

    @pytest.mark.parametrize("protocol", [SkNNBasic, SkNNSecure])
    def test_over_the_in_memory_channel_nothing_is_computed(
            self, small_keypair, protocol):
        """``p2_step`` has queued every reply before C1 reads it."""
        table = synthetic_uniform(n_records=8, dimensions=3,
                                  distance_bits=6, seed=1)
        owner = DataOwner(table, keypair=small_keypair, rng=Random(5))
        cloud = FederatedCloud.deploy(small_keypair, rng=Random(6))
        cloud.c1.host_database(owner.encrypt_database())
        lookahead = QueryLookahead(small_keypair.public_key, cloud.c1.rng,
                                   Random(7), budget=10 ** 6)
        cloud.attach_engine(lookahead, None)
        query = QueryClient(owner.public_key, 3,
                            rng=Random(9)).encrypt_query([1, 2, 3])
        arguments = {"distance_bits": 6} if protocol is SkNNSecure else {}
        protocol(cloud, **arguments).run(query, 2)
        assert lookahead.offline_encryptions == lookahead.hits == 0
        assert lookahead.misses > 0
