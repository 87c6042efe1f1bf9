"""Property tests for query-id frame multiplexing on the peer link.

The pipelined transport interleaves frames from N concurrent query contexts
over one socket.  Two invariants make that safe for the protocol stack:

1. **Routing** — every frame is delivered to exactly the context that sent
   its query id, in per-context FIFO order, no matter how the schedules
   interleave (including full-duplex echo traffic).
2. **Accounting** — byte/ciphertext/message accounting is transport
   identical: each context's channel counts precisely its own framed bytes
   (header + encoded body), and the connection-level totals equal the sum
   over contexts.
"""

from __future__ import annotations

import socket
import threading
from collections import defaultdict

from hypothesis import given, strategies as st

from repro.network.channel import Message, _count_payload
from repro.network.stats import TrafficStats
from repro.transport.framing import FRAME_HEADER_BYTES
from repro.transport.mux import MuxConnection
from repro.transport.wire import WireCodec

DONE_TAG = "prop.done"

payloads = st.one_of(
    st.integers(min_value=0, max_value=2**48),
    st.text(alphabet="abcxyz0123", max_size=12),
    st.lists(st.integers(min_value=0, max_value=255), max_size=6),
)

#: an interleaved schedule: which context sends next, and what.
schedules = st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                               payloads),
                     min_size=1, max_size=24)


def _expected_frame_bytes(codec: WireCodec, sender: str, recipient: str,
                          tag: str, payload, context) -> int:
    """The accounting rule: actual framed bytes = header + encoded body."""
    body = codec.encode_message(Message(
        sender=sender, recipient=recipient, tag=tag, payload=payload,
        trace=None, context=context))
    return FRAME_HEADER_BYTES + len(body)


def _mux_pair(on_new_context=None):
    """A connected MuxConnection pair (C1 side, C2 side) over a socketpair."""
    codec = WireCodec()
    sock_a, sock_b = socket.socketpair()
    side_a = MuxConnection(sock_a, codec, "C1", "C2", io_deadline=30.0)
    side_b = MuxConnection(sock_b, codec, "C2", "C1", io_deadline=30.0,
                           on_new_context=on_new_context)
    return codec, side_a, side_b


@given(schedule=schedules)
def test_interleaved_frames_dispatch_to_their_context(schedule):
    """Concurrent senders + echo workers: routing stays per-context FIFO."""
    per_context: dict[int, list] = defaultdict(list)
    for index, (context, payload) in enumerate(schedule):
        per_context[context].append((f"prop.t{index}", payload))

    workers: list[threading.Thread] = []

    def echo(channel):
        """C2-side worker: echo every frame of one context back."""
        def run():
            while True:
                tag = channel.next_tag()
                payload = channel.receive("C2")
                channel.send("C2", payload, tag=tag)
                if tag == DONE_TAG:
                    return
        thread = threading.Thread(target=run, daemon=True)
        workers.append(thread)
        thread.start()

    codec, side_a, side_b = _mux_pair(on_new_context=echo)
    try:
        side_a.start_reader()
        side_b.start_reader()
        channels = {context: side_a.channel(f"q{context}")
                    for context in per_context}
        errors: list[BaseException] = []

        def drive(context: int) -> None:
            channel = channels[context]
            frames = per_context[context] + [(DONE_TAG, "done")]
            try:
                for tag, payload in frames:
                    channel.send("C1", payload, tag=tag)
                for tag, payload in frames:
                    # The echo must come back on the same context, in order.
                    assert channel.receive("C1", expected_tag=tag) == payload
            except BaseException as exc:  # noqa: BLE001 - reraised below
                errors.append(exc)

        drivers = [threading.Thread(target=drive, args=(context,))
                   for context in per_context]
        for thread in drivers:
            thread.start()
        for thread in drivers:
            thread.join(timeout=60.0)
        for thread in workers:
            thread.join(timeout=60.0)
        if errors:
            raise errors[0]

        # -- accounting: per-context totals, transport-identical rule -------
        connection_out = 0
        for context, frames in per_context.items():
            channel = channels[context]
            all_frames = frames + [(DONE_TAG, "done")]
            expected_out = sum(
                _expected_frame_bytes(codec, "C1", "C2", tag, payload,
                                      f"q{context}")
                for tag, payload in all_frames)
            expected_in = sum(
                _expected_frame_bytes(codec, "C2", "C1", tag, payload,
                                      f"q{context}")
                for tag, payload in all_frames)
            expected_items = sum(_count_payload(payload)[1]
                                 for _, payload in all_frames)
            out = channel.traffic["C1"].snapshot()
            inbound = channel.traffic["C2"].snapshot()
            assert out["bytes_transferred"] == expected_out
            assert inbound["bytes_transferred"] == expected_in
            assert out["messages"] == inbound["messages"] == len(all_frames)
            assert out["plaintext_items"] == expected_items
            assert inbound["plaintext_items"] == expected_items
            connection_out += expected_out

        # context totals sum to the connection's wire totals
        assert (side_a.traffic["C1"].snapshot()["bytes_transferred"]
                == connection_out)
        assert (side_a.traffic["C1"].snapshot()["messages"]
                == sum(len(frames) + 1
                       for frames in per_context.values()))
        # the peer observed byte-for-byte what this side accounted
        assert (side_b.traffic["C1"].snapshot()["bytes_transferred"]
                == connection_out)
    finally:
        side_a.close()
        side_b.close()


@given(schedule=st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                                   payloads),
                         min_size=1, max_size=16))
def test_default_context_accounting_matches_framing_rule(schedule):
    """The ``None`` context costs exactly header + encoded body per frame.

    Peers that open no query contexts speak exactly this: frames with no
    context id.  Sending tagged payloads on a mux connection's default
    context must account, on both sides, one message and
    ``FRAME_HEADER_BYTES + len(WireCodec.encode_message(...))`` bytes per
    frame — in total and in the per-tag split — with the payload's
    ciphertext/item counts.
    """
    delivered = []
    codec, side_a, side_b = _mux_pair(
        on_new_context=lambda channel: delivered.append(channel))
    try:
        side_b.start_reader()
        channel = side_a.channel(None)
        for tag, payload in schedule:
            channel.send("C1", payload, tag=f"prop.{tag}")
        assert len(delivered) == 0 or len(delivered) == 1
        peer = side_b.channel(None)
        for tag, payload in schedule:
            assert peer.receive("C2", expected_tag=f"prop.{tag}") == payload
        mux_out = channel.traffic["C1"]
        mux_in = peer.traffic["C1"]
    finally:
        side_a.close()
        side_b.close()

    expected = TrafficStats()
    for tag, payload in schedule:
        ciphertexts, plaintexts = _count_payload(payload)
        expected.record(
            ciphertexts, plaintexts,
            _expected_frame_bytes(codec, "C1", "C2", f"prop.{tag}", payload,
                                  None),
            tag=f"prop.{tag}")
    for measured in (mux_out, mux_in):
        assert measured.snapshot() == expected.snapshot()
        assert measured.per_tag_snapshot() == expected.per_tag_snapshot()
