"""The socket channel: the DuplexChannel interface over a real socket pair.

The one socket channel is :class:`~repro.transport.mux.MuxChannel`; these
tests drive its default (``None``) context, which is what a peer that opens
no per-query contexts speaks.

Includes the byte-accounting comparability check of the distributed-runtime
PR: the in-memory channel and the socket channel must report the *same*
``bytes_transferred`` for the same payload, because both size their traffic
with the same wire codec.
"""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ChannelError
from repro.network.channel import DuplexChannel
from repro.transport.wire import WireCodec
from tests.conftest import socket_channel_pair


@pytest.fixture()
def channel_pair(public_key):
    c1_side, c2_side = socket_channel_pair(WireCodec(public_key))
    yield c1_side, c2_side
    c1_side.connection.close()
    c2_side.connection.close()


class TestTcpChannel:
    def test_send_receive_both_directions(self, channel_pair, public_key):
        c1_side, c2_side = channel_pair
        ciphertext = public_key.encrypt(11)
        c1_side.send("C1", [ciphertext, 5], tag="ping")
        received = c2_side.receive("C2", expected_tag="ping")
        assert received[0].value == ciphertext.value
        assert received[1] == 5
        c2_side.send("C2", "pong", tag="reply")
        assert c1_side.receive("C1", expected_tag="reply") == "pong"

    def test_runs_both_parties_is_false(self, channel_pair):
        c1_side, _ = channel_pair
        assert c1_side.runs_both_parties is False
        assert DuplexChannel.runs_both_parties is True

    def test_only_local_role_may_send_or_receive(self, channel_pair):
        c1_side, _ = channel_pair
        with pytest.raises(ChannelError):
            c1_side.send("C2", 1)
        with pytest.raises(ChannelError):
            c1_side.receive("C2")
        with pytest.raises(ChannelError):
            c1_side.pending("C2")

    def test_tag_mismatch_raises(self, channel_pair):
        c1_side, c2_side = channel_pair
        c1_side.send("C1", 1, tag="a")
        with pytest.raises(ChannelError, match="expected message tagged"):
            c2_side.receive("C2", expected_tag="b")

    def test_next_tag_peeks_without_consuming(self, channel_pair):
        c1_side, c2_side = channel_pair
        c1_side.send("C1", 123, tag="step.one")
        assert c2_side.next_tag() == "step.one"
        assert c2_side.pending("C2") == 1
        assert c2_side.receive("C2", expected_tag="step.one") == 123
        assert c2_side.pending("C2") == 0

    def test_remote_error_frame_raises(self, channel_pair):
        c1_side, c2_side = channel_pair
        c2_side.send("C2", "something broke", tag="transport.error")
        with pytest.raises(ChannelError, match="something broke"):
            c1_side.receive("C1", expected_tag="whatever")

    def test_closed_peer_raises(self, channel_pair):
        c1_side, c2_side = channel_pair
        c2_side.connection.close()
        with pytest.raises(ChannelError):
            c1_side.receive("C1")

    def test_traffic_counted_on_both_sides(self, channel_pair, public_key):
        c1_side, c2_side = channel_pair
        c1_side.send("C1", [public_key.encrypt(1), 7], tag="t")
        c2_side.receive("C2")
        sent = c1_side.traffic["C1"]
        seen = c2_side.traffic["C1"]
        assert sent.messages == seen.messages == 1
        assert sent.ciphertexts == seen.ciphertexts == 1
        assert sent.plaintext_items == seen.plaintext_items == 1
        assert sent.bytes_transferred == seen.bytes_transferred > 0
        assert c1_side.total_traffic().messages == 1
        c1_side.reset_accounting()
        assert c1_side.total_traffic().bytes_transferred == 0

    def test_byte_accounting_matches_in_memory_channel(self, channel_pair,
                                                       public_key):
        """Same payload, same tag -> identical byte counts on both transports
        (the in-memory channel sizes its accounting with the wire codec)."""
        c1_side, c2_side = channel_pair
        in_memory = DuplexChannel("C1", "C2")
        payloads = [
            [public_key.encrypt(3), public_key.encrypt(-4)],
            [2, [(0, public_key.encrypt(9))]],
            [],
            "text",
            {"nested": (1, None, True)},
        ]
        for index, payload in enumerate(payloads):
            tag = f"tag.{index}"
            in_memory.send("C1", payload, tag=tag)
            c1_side.send("C1", payload, tag=tag)
            c2_side.receive("C2", expected_tag=tag)
        assert (in_memory.traffic["C1"].bytes_transferred
                == c1_side.traffic["C1"].bytes_transferred)
        assert (in_memory.traffic["C1"].ciphertexts
                == c1_side.traffic["C1"].ciphertexts)
        assert (in_memory.traffic["C1"].plaintext_items
                == c1_side.traffic["C1"].plaintext_items)

    def test_concurrent_sends_are_serialized(self, channel_pair):
        """Many threads sending on one channel must interleave at frame
        granularity (the send lock), never corrupt the stream."""
        c1_side, c2_side = channel_pair
        count = 40

        def sender(value: int) -> None:
            c1_side.send("C1", [value] * 50, tag="burst")

        threads = [threading.Thread(target=sender, args=(i,))
                   for i in range(count)]
        for thread in threads:
            thread.start()
        received = [c2_side.receive("C2", expected_tag="burst")
                    for _ in range(count)]
        for thread in threads:
            thread.join()
        values = sorted(batch[0] for batch in received)
        assert values == list(range(count))
        assert all(batch == [batch[0]] * 50 for batch in received)
