"""P2 step dispatch: the machinery that splits protocols across processes.

Every interaction with the decryptor is a registered, tag-keyed handler; the
in-memory runtime executes it inline, a C2 daemon executes it on frame
arrival.  These tests pin the registry contents (a missing registration
would deadlock a distributed run) and the dispatch semantics.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.cloud import FederatedCloud
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.exceptions import ChannelError, ProtocolError
from repro.protocols.sbd import SecureBitDecomposition
from repro.protocols.sm import SecureMultiplication
from repro.protocols.smin import SecureMinimum
from repro.transport.daemon import ShareMailbox

#: every tag the SSED/SMIN/SMIN_n/SkNN drivers send toward C2 —
#: each MUST resolve to a handler on the C2 daemon or the driver deadlocks.
EXPECTED_SECURE_TAGS = {
    "SSED.masked_differences",
    "SMIN.batch_masked_differences",
    "SMIN.batch_comparisons",
    "SkNNm.randomized_differences",
    "SkNN.masked_results",
}

EXPECTED_BASIC_TAGS = {
    "SSED.masked_differences",
    "SkNNb.encrypted_distances",
    "SkNN.masked_results",
}


class TestHandlerRegistry:
    def test_sknn_secure_registers_every_p2_tag(self, deployed_cloud):
        protocol = SkNNSecure(deployed_cloud, distance_bits=8)
        handlers = protocol.collect_p2_handlers()
        assert set(handlers) == EXPECTED_SECURE_TAGS
        assert all(callable(handler) for handler in handlers.values())

    def test_sknn_basic_registers_every_p2_tag(self, deployed_cloud):
        handlers = SkNNBasic(deployed_cloud).collect_p2_handlers()
        assert set(handlers) == EXPECTED_BASIC_TAGS

    def test_daemon_registry_union_covers_both_protocols(self, small_keypair):
        """The C2 daemon builds its dispatch table exactly this way."""
        from random import Random

        cloud = FederatedCloud.deploy(small_keypair, rng=Random(1))
        registry = {}
        for protocol in (SkNNBasic(cloud),
                         SkNNSecure(cloud, distance_bits=8)):
            registry.update(protocol.collect_p2_handlers())
        assert set(registry) == EXPECTED_SECURE_TAGS | EXPECTED_BASIC_TAGS


class TestDispatchSemantics:
    def test_unknown_tag_raises(self, setting):
        protocol = SecureMultiplication(setting)
        with pytest.raises(ProtocolError, match="no P2 step registered"):
            protocol.dispatch_p2("SM.no_such_step")

    def test_inline_dispatch_runs_handler_on_in_memory_channel(self, setting):
        """p2_step over a DuplexChannel consumes the message and replies."""
        protocol = SecureMultiplication(setting)
        pk = setting.public_key
        enc = pk.encrypt(6)
        setting.evaluator.send([[enc], [enc]], tag="SM.batch_masked_operands")
        protocol.p2_step("SM.batch_masked_operands")
        [reply] = setting.evaluator.receive(
            expected_tag="SM.batch_masked_products")
        assert setting.decryptor.decrypt_signed(reply) == 36

    def test_remote_channel_skips_inline_execution(self, setting):
        """When the channel says the peer is remote, p2_step is a no-op."""
        protocol = SecureMultiplication(setting)
        setting.channel.runs_both_parties = False
        try:
            setting.evaluator.send([1, 2], tag="SM.masked_operands")
            assert protocol.p2_step("SM.masked_operands") is None
            # The message was NOT consumed locally.
            assert setting.channel.pending("C2") == 1
        finally:
            del setting.channel.runs_both_parties


class TestHardenedHandlers:
    """Each sub-protocol P2 step shape-checks its batch before decrypting."""

    @pytest.mark.parametrize("build, tag, payloads", [
        (SecureMultiplication, "SM.batch_masked_operands", [
            lambda c: [[c], [c], [c]],          # three rows
            lambda c: [[c, c], [c]],            # unequal operand vectors
            lambda c: [[c], [7]],               # an int among ciphertexts
            lambda c: [[], []]]),
        (SecureMultiplication, "SM.batch_masked_squares", [
            lambda c: c, lambda c: [c, "x"], lambda c: []]),
        (lambda setting: SecureBitDecomposition(setting, 6),
         "SBD.batch_masked_values", [
            lambda c: {"values": [c]}, lambda c: [[c]], lambda c: []]),
        (SecureMinimum, "SMIN.batch_masked_differences", [
            lambda c: [c],                      # no bit length
            lambda c: [0, [c]],                 # L = 0
            lambda c: [True, [c]],              # a bool for L
            lambda c: ["3", [c]],               # a str for L
            lambda c: [4096, [c]],              # z could not fit below N
            lambda c: [3, [c, 7]],              # an int among ciphertexts
            lambda c: [3, []]]),
        (SecureMinimum, "SMIN.batch_comparisons", [
            lambda c: [[c, c, c]],              # no entry: L = 0
            lambda c: [[c, c, c, c], [c, c, c]],  # ragged across pairs
            lambda c: [[c, c, c, 7]],           # an int among ciphertexts
            lambda c: [c, c, c, c],             # not rows
            lambda c: []]),
    ])
    def test_malformed_batch_fails_typed_before_any_decryption(
            self, setting, build, tag, payloads):
        protocol = build(setting)
        cipher = setting.public_key.encrypt(1)
        setting.reset_counters()
        for payload in payloads:
            setting.evaluator.send(payload(cipher), tag=tag)
            with pytest.raises(ProtocolError,
                               match=f"{protocol.name}: malformed"):
                protocol.dispatch_p2(tag)
        assert setting.decryptor.private_key.counter.decryptions == 0
        assert setting.channel.pending("C1") == 0  # and nothing was replied


class TestDeliveryFrameChecks:
    """C2's delivery step checks ``[delivery_id, rows]`` before decrypting
    or filing anything — a filed non-``int`` id would be journaled and then
    break the durable mailbox's replay."""

    @pytest.mark.parametrize("payload", [
        lambda c: 7,                            # not a list
        lambda c: [1, [[c, 7]]],                # an int among ciphertexts
        lambda c: ["1", [[c, c]]],              # a non-int delivery id
        lambda c: [1, [[c, c], [c]]],           # ragged rows
        lambda c: [1, []],                      # no rows
    ], ids=["not-a-list", "non-cipher", "str-id", "ragged", "empty"])
    def test_malformed_delivery_files_nothing(self, deployed_cloud, payload):
        protocol = SkNNBasic(deployed_cloud)
        mailbox = ShareMailbox()
        deployed_cloud.c2.share_sink = mailbox.put
        deployed_cloud.reset_counters()
        deployed_cloud.c1.send(
            payload(deployed_cloud.c1.public_key.encrypt(1)),
            tag="SkNN.masked_results")
        with pytest.raises(ProtocolError, match="SkNNb: malformed"):
            protocol.dispatch_p2("SkNN.masked_results")
        assert len(mailbox) == 0
        assert deployed_cloud.c2.private_key.counter.decryptions == 0


class _AnsweringC2(SkNNBasic):
    """SkNN_b whose inline C2 answers the top-k step with a fixed reply."""

    reply: object = None

    def _p2_select_top_k(self) -> None:
        self.cloud.c2.receive(expected_tag="SkNNb.encrypted_distances")
        self.cloud.c2.send(self.reply, tag="SkNNb.topk_indices")


class TestTopKReplyChecks:
    """C1 checks C2's top-k index list before selecting any record: a plain
    list index would turn ``-1`` into the last record, a repeat into a
    duplicate neighbour and a short list into fewer than ``k``."""

    @pytest.mark.parametrize("k, reply", [
        (1, [-1]),
        (2, [0, 0]),
        (2, [0]),
    ], ids=["negative", "repeated", "short"])
    def test_bad_index_list_fails_typed(self, deployed_cloud, k, reply):
        protocol = _AnsweringC2(deployed_cloud)
        protocol.reply = reply
        public_key = deployed_cloud.c1.public_key
        query = [public_key.encrypt(value) for value in (1, 2, 3)]
        with pytest.raises(ProtocolError,
                           match="SkNNb: malformed top-k index list"):
            protocol.run(query, k)


class TestShareMailbox:
    def test_put_then_fetch_pops(self):
        mailbox = ShareMailbox()
        mailbox.put(7, [[1, 2]])
        assert len(mailbox) == 1
        assert mailbox.fetch(7, timeout=1.0) == [[1, 2]]
        assert len(mailbox) == 0

    def test_fetch_blocks_until_put(self):
        mailbox = ShareMailbox()
        results = []

        def fetcher():
            results.append(mailbox.fetch(3, timeout=5.0))

        thread = threading.Thread(target=fetcher)
        thread.start()
        mailbox.put(3, [[9]])
        thread.join(timeout=5.0)
        assert results == [[[9]]]

    def test_timeout_raises(self):
        mailbox = ShareMailbox()
        with pytest.raises(ChannelError, match="no share filed"):
            mailbox.fetch(99, timeout=0.05)
