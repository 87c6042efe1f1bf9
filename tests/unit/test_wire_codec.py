"""Wire codec and framing: every channel payload shape must round-trip.

Satellite of the distributed-runtime PR: the encode/decode pair must be the
identity on every ``Message.payload`` shape the SM/SSED/SBD/SMIN/SMIN_n/SkNN
protocols put on a channel — including negative residues, empty batches and
deeply nested list/tuple mixes — because a lossy codec would silently corrupt
a protocol round instead of failing it.
"""

from __future__ import annotations

import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.serialization import (
    FRAME_HEADER_BYTES,
    payload_from_jsonable,
    payload_to_jsonable,
)
from repro.exceptions import ChannelError, SerializationError
from repro.network.channel import Message, message_wire_size
from repro.transport.framing import MAX_FRAME_BYTES, recv_frame, send_frame
from repro.transport.wire import WireCodec


def roundtrip(payload, public_key):
    return payload_from_jsonable(payload_to_jsonable(payload), public_key)


class TestProtocolPayloadShapes:
    """One representative payload per protocol message tag."""

    def assert_identity(self, payload, public_key):
        result = roundtrip(payload, public_key)
        assert self.normalize(result) == self.normalize(payload)
        assert type(result) is type(payload)

    @staticmethod
    def normalize(payload):
        """Ciphertext equality is by raw value (dataclass identity differs)."""
        from repro.crypto.paillier import Ciphertext

        if isinstance(payload, Ciphertext):
            return ("ct", payload.value)
        if isinstance(payload, list):
            return [TestProtocolPayloadShapes.normalize(p) for p in payload]
        if isinstance(payload, tuple):
            return tuple(TestProtocolPayloadShapes.normalize(p) for p in payload)
        if isinstance(payload, dict):
            return {k: TestProtocolPayloadShapes.normalize(v)
                    for k, v in payload.items()}
        return payload

    def test_sm_masked_operands(self, public_key):
        # SM.masked_operands / SM.batch_masked_operands: [cts, cts]
        cts = [public_key.encrypt(v) for v in (0, 1, -5)]
        self.assert_identity([cts[:2], cts[1:]], public_key)

    def test_sm_single_product(self, public_key):
        # SM.masked_product: one bare ciphertext
        self.assert_identity(public_key.encrypt(42), public_key)

    def test_sbd_masked_values(self, public_key):
        # SBD.batch_masked_values: flat ciphertext vector (possibly empty)
        self.assert_identity([public_key.encrypt(v) for v in range(3)],
                             public_key)
        self.assert_identity([], public_key)

    def test_smin_masked_differences(self, public_key):
        # SMIN.batch_masked_differences: [L, [ct, ...]]
        self.assert_identity([6, [public_key.encrypt(v) for v in (1, 0)]],
                             public_key)

    def test_smin_comparisons(self, public_key):
        # SMIN.batch_comparisons: one row of L + 3 ciphertexts per pair
        row = [public_key.encrypt(v) for v in (1, 0, 1, 0)]
        self.assert_identity([row, row], public_key)

    def test_sknnb_distances(self, public_key):
        # SkNNb.encrypted_distances: [k, [(index, ct), ...]] with tuples
        indexed = [(i, public_key.encrypt(i * i)) for i in range(4)]
        self.assert_identity([2, indexed], public_key)

    def test_sknnb_topk_indices(self, public_key):
        # SkNNb.topk_indices: plain int list
        self.assert_identity([3, 0, 7], public_key)

    def test_delivery_payload(self, public_key):
        # SkNN.masked_results: [delivery_id, [[ct, ...], ...]]
        records = [[public_key.encrypt(v) for v in (9, 8)] for _ in range(2)]
        self.assert_identity([17, records], public_key)

    def test_negative_residues_and_big_ints(self, public_key):
        n = public_key.n
        self.assert_identity([-1, -(n - 1), n * n + 3, 0], public_key)

    def test_control_shapes(self, public_key):
        # provisioning/control payloads: dicts with str keys, None, bools,
        # floats and strings
        self.assert_identity(
            {"mode": "secure", "k": 2, "seed": None, "warm": True,
             "elapsed": 0.25, "nested": {"a": [1, 2], "b": (3, 4)}},
            public_key)

    def test_empty_batches(self, public_key):
        self.assert_identity([[], [], ()], public_key)

    def test_unsupported_type_raises(self, public_key):
        with pytest.raises(SerializationError):
            payload_to_jsonable(object())

    def test_ciphertext_without_key_raises(self, public_key):
        encoded = payload_to_jsonable(public_key.encrypt(1))
        with pytest.raises(SerializationError):
            payload_from_jsonable(encoded, None)


# ---------------------------------------------------------------------------
# Property test: encode . decode == identity on arbitrary nested payloads
# ---------------------------------------------------------------------------

def payload_strategy(ciphertext_values):
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
        st.text(max_size=12),
        st.sampled_from(ciphertext_values),
    )
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=6), children, max_size=3),
        ),
        max_leaves=12,
    )


class TestPayloadProperty:
    # The public_key fixture is immutable across examples, so reusing it is
    # safe despite its function scope.
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_encode_decode_identity(self, data, public_key):
        ciphertexts = [public_key.encrypt(v) for v in (-3, 0, 1)]
        payload = data.draw(payload_strategy(ciphertexts))
        result = roundtrip(payload, public_key)
        normalize = TestProtocolPayloadShapes.normalize
        assert normalize(result) == normalize(payload)


# ---------------------------------------------------------------------------
# Message envelope + framing
# ---------------------------------------------------------------------------

class TestMessageCodec:
    def test_message_round_trip(self, public_key):
        codec = WireCodec(public_key)
        message = Message("C1", "C2", "SM.masked_operands",
                          [public_key.encrypt(5), -7])
        decoded = codec.decode_message(codec.encode_message(message))
        assert decoded.sender == "C1"
        assert decoded.recipient == "C2"
        assert decoded.tag == "SM.masked_operands"
        assert decoded.payload[0].value == message.payload[0].value
        assert decoded.payload[1] == -7

    def test_wire_size_matches_frame(self, public_key):
        codec = WireCodec(public_key)
        message = Message("C1", "C2", "t", [public_key.encrypt(1), [2, 3]])
        assert message_wire_size(message) == (
            len(codec.encode_message(message)) + FRAME_HEADER_BYTES)

    def test_malformed_envelope_raises(self, public_key):
        codec = WireCodec(public_key)
        with pytest.raises(ChannelError):
            codec.decode_message(b"{not json")
        with pytest.raises(ChannelError):
            codec.decode_message(b'["only", "three", "parts"]')


class TestFraming:
    def test_socketpair_round_trip(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, b"hello")
            send_frame(left, b"")
            assert recv_frame(right) == b"hello"
            assert recv_frame(right) == b""
        finally:
            left.close()
            right.close()

    def test_clean_close_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_truncated_stream_raises(self):
        left, right = socket.socketpair()
        try:
            # A header promising 100 bytes, then EOF.
            left.sendall((100).to_bytes(4, "big") + b"short")
            left.close()
            with pytest.raises(ChannelError, match="mid-frame|header and body"):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_frame_rejected(self, monkeypatch):
        left, right = socket.socketpair()
        try:
            left.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ChannelError, match="limit"):
                recv_frame(right)
            # Sender-side guard (patched limit so the test stays tiny).
            from repro.transport import framing
            monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 8)
            with pytest.raises(ChannelError, match="refusing"):
                send_frame(left, b"x" * 9)
        finally:
            left.close()
            right.close()
