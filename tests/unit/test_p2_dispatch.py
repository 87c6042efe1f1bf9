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
            lambda c: [[c, c, c, 7]],           # ciphertexts for DGK values
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


class TestSminDgkValueChecks:
    """SMIN's DGK values travel as ints: C2 range-checks every one before
    it zero-tests anything, and C1 checks C2's bit rows before it builds a
    marker on them."""

    @pytest.mark.parametrize("row", [
        lambda c, d, n: [0, d, c, c],           # a DGK value of 0
        lambda c, d, n: [n, d, c, c],           # one at the DGK modulus
        lambda c, d, n: [-d, d, c, c],          # a negative one
        lambda c, d, n: [True, d, c, c],        # a bool
        lambda c, d, n: [d, c, c, c],           # a ciphertext for the top bit
        lambda c, d, n: [d, d, c, 7],           # an int for a candidate
    ], ids=["zero", "modulus", "negative", "bool", "cipher", "int-candidate"])
    def test_c2_tests_nothing_of_a_batch_with_a_bad_value(self, setting, row):
        protocol = SecureMinimum(setting)
        dgk = setting.decryptor.dgk_private_key.public_key
        [value] = dgk.encrypt_batch([1])
        cipher = setting.public_key.encrypt(1)
        setting.reset_counters()
        setting.evaluator.send([row(cipher, value, dgk.n)],
                               tag="SMIN.batch_comparisons")
        with pytest.raises(ProtocolError,
                           match="SMIN: malformed comparison batch"):
            protocol.dispatch_p2("SMIN.batch_comparisons")
        # DGK tests count on the key holder's counter too: none ran
        assert setting.decryptor.private_key.counter.decryptions == 0
        assert setting.channel.pending("C1") == 0

    @pytest.mark.parametrize("corrupt", [
        lambda rows, n: [row[:-1] for row in rows],        # a bit short
        lambda rows, n: rows + rows,                       # a row too many
        lambda rows, n: [[n] + row[1:] for row in rows],   # out of range
        lambda rows, n: [[str(v) for v in row] for row in rows],
    ], ids=["short-row", "extra-row", "out-of-range", "str"])
    def test_c1_refuses_a_malformed_bit_reply(self, setting, corrupt):
        protocol = SecureMinimum(setting)
        n = setting.evaluator.dgk_key.n
        answer = protocol._p2_bits_of_masked_differences

        def corrupted() -> None:
            answer()
            rows = setting.channel.receive("C1", "SMIN.batch_difference_bits")
            setting.decryptor.send(corrupt(rows, n),
                                   tag="SMIN.batch_difference_bits")

        protocol._p2_bits_of_masked_differences = corrupted
        public = setting.public_key
        with pytest.raises(ProtocolError,
                           match="SMIN: malformed difference-bits reply"):
            protocol.run(public.encrypt(3), public.encrypt(5), 4)


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


#: hostile packed frames ``[header, w, count, packs]``: ``c`` is a
#: ciphertext under the key, ``o`` one under another key, ``K`` the key
#: size (128 bits: two 46-bit slots a pack)
MALFORMED_PACKED_FRAMES = {
    "old rows": lambda c, o, K: [[c, c], [c]],
    "four old rows": lambda c, o, K: [[c], [c], [c], [c]],
    "old rows with an int": lambda c, o, K: [[c], [7]],
    "empty rows": lambda c, o, K: [[], []],
    "old flat list": lambda c, o, K: [c, c],
    "empty": lambda c, o, K: [],
    "not a list": lambda c, o, K: c,
    "width 0": lambda c, o, K: [1, 0, 2, [c]],
    "width K": lambda c, o, K: [1, K, 2, [c]],
    "string width": lambda c, o, K: [1, "46", 2, [c]],
    "bool width": lambda c, o, K: [1, True, 2, [c]],
    "bool count": lambda c, o, K: [1, 46, True, [c]],
    "bool header": lambda c, o, K: [True, 46, 2, [c]],
    "count 0": lambda c, o, K: [1, 46, 0, []],
    "count without its packs": lambda c, o, K: [1, 46, 3, [c]],
    "too many packs": lambda c, o, K: [1, 46, 2, [c, c]],
    "non-ciphertext pack": lambda c, o, K: [1, 46, 2, [7]],
    "pack under another key": lambda c, o, K: [1, 46, 2, [o]],
    "header 0": lambda c, o, K: [0, 46, 2, [c]],
    "header above the count": lambda c, o, K: [3, 46, 2, [c]],
}

#: the two C2 steps that decrypt packed frames (SSED's scan, SkNN_b's
#: selection), with their refusal
PACKED_STEPS = {
    "SSED.masked_differences": "SSED: malformed masked-difference batch",
    "SkNNb.encrypted_distances": "SkNNb: malformed encrypted-distance list",
}


class TestPackedFrameChecks:
    """Both packed C2 steps refuse the same hostile frames, typed, before
    they decrypt anything (``P2StepDispatcher.require_packs``)."""

    @staticmethod
    def send(cloud, tag, frame):
        handler = SkNNBasic(cloud).collect_p2_handlers()[tag]
        cloud.c2.private_key.counter.reset()
        cloud.c1.send(frame, tag=tag)
        return handler

    @pytest.mark.parametrize("tag", PACKED_STEPS)
    @pytest.mark.parametrize("shape", list(MALFORMED_PACKED_FRAMES))
    def test_a_malformed_frame_is_refused_before_any_decryption(
            self, deployed_cloud, medium_keypair, tag, shape):
        public = deployed_cloud.c1.public_key
        handler = self.send(deployed_cloud, tag, MALFORMED_PACKED_FRAMES[
            shape](public.encrypt(1), medium_keypair.public_key.encrypt(1),
                   public.key_size))
        with pytest.raises(ProtocolError, match=f"^{PACKED_STEPS[tag]}$"):
            handler()
        assert deployed_cloud.c2.private_key.counter.decryptions == 0
        assert deployed_cloud.channel.pending("C1") == 0  # nothing replied

    @pytest.mark.parametrize("tag", PACKED_STEPS)
    def test_the_well_formed_frame_is_answered(self, deployed_cloud, tag):
        cipher = deployed_cloud.c1.public_key.encrypt(1)
        self.send(deployed_cloud, tag, [1, 46, 2, [cipher]])()
        assert deployed_cloud.c2.private_key.counter.decryptions == 1
        assert deployed_cloud.channel.pending("C1") == 1


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
