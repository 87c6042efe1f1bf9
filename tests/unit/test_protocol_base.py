"""Unit tests for the shared two-party protocol machinery (base class helpers)."""

from __future__ import annotations

import pytest

from repro.exceptions import ProtocolError, ReproError
from repro.protocols.base import (
    PIPELINE_MIN_ITEMS,
    TwoPartyProtocol,
)
from repro.protocols.encoding import encrypt_bits
from repro.protocols.sbd import SecureBitDecomposition
from repro.protocols.sm import SecureMultiplication
from repro.protocols.smin import SecureMinimum
from repro.protocols.ssed import SecureSquaredEuclideanDistance


class _EchoRound(TwoPartyProtocol):
    """A batched round whose P2 step sends the chunk straight back."""

    name = "ECHO"
    P2_STEPS = {"ECHO.items": "_p2_echo"}

    def _p2_echo(self) -> None:
        self.p2.send(self.p2.receive(expected_tag="ECHO.items"),
                     tag="ECHO.echoed")

    def run(self, items: list):
        def finish(chunk, sent, reply):
            assert reply == sent == list(chunk)
            return reply

        return self.run_pipelined(
            items, "ECHO.items", "ECHO.echoed",
            lambda chunk: (list(chunk), list(chunk)), finish)


class TestCiphertextHelpers:
    def test_add_plain_adds_constant(self, setting, private_key):
        protocol = TwoPartyProtocol(setting)
        result = protocol.add_plain(setting.public_key.encrypt(100), 23)
        assert private_key.decrypt(result) == 123

    def test_add_plain_handles_negative_constants_mod_n(self, setting, private_key):
        protocol = TwoPartyProtocol(setting)
        result = protocol.add_plain(setting.public_key.encrypt(100), -1)
        assert private_key.decrypt_raw_residue(result) == 99

    def test_require_raises_protocol_error_with_name(self, setting):
        protocol = TwoPartyProtocol(setting)
        with pytest.raises(ProtocolError, match="two-party-protocol"):
            protocol.require(False, "something went wrong")
        protocol.require(True, "never raised")

    def test_run_is_abstract(self, setting):
        with pytest.raises(NotImplementedError):
            TwoPartyProtocol(setting).run()


class TestPipelinedRound:
    """``run_pipelined``: the split rule, and every chunk checks its reply."""

    def test_the_split_is_by_index_and_by_length_only(self, setting):
        """Halves from PIPELINE_MIN_ITEMS items, one chunk below; the first
        half takes the odd item; an empty batch sends nothing; each chunk's
        state meets its own reply."""
        protocol = _EchoRound(setting)
        assert PIPELINE_MIN_ITEMS == 4
        for size, expected in [(0, []), (1, [1]), (3, [3]), (4, [2, 2]),
                               (5, [3, 2]), (9, [5, 4])]:
            setting.channel.transcript.clear()
            assert protocol.run(list(range(size))) == list(range(size))
            assert [len(message.payload)
                    for message in setting.channel.transcript
                    if message.tag == "ECHO.items"] == expected

    @staticmethod
    def short_second_reply(setting, reply_tag, shorten):
        """C2 stub: ``shorten`` the second ``reply_tag`` payload C2 sends."""
        send = setting.decryptor.send
        replies = []

        def sending(payload, tag=""):
            if tag == reply_tag:
                replies.append(tag)
                if len(replies) == 2:
                    payload = shorten(payload)
            send(payload, tag=tag)

        setting.decryptor.send = sending
        return replies

    @pytest.mark.parametrize("case", ["SM", "SM-square", "SSED", "SBD",
                                      "SMIN-alpha", "SMIN-row", "SMIN-bit"])
    def test_a_short_second_reply_fails_typed_in_its_own_chunk(
            self, setting, case):
        """With two replies in flight a dropped ciphertext must not
        mis-align into the neighbouring chunk: the chunk it belongs to
        raises ``ProtocolError`` before stripping anything."""
        pk = setting.public_key
        values = pk.encrypt_vector([1, 2, 3, 4, 5])
        bits = [encrypt_bits(pk, value, 3) for value in (1, 6, 2, 5, 3)]
        pairs = list(zip(bits, reversed(bits)))

        def drop_last(payload):
            return payload[:-1]

        protocol, reply_tag, shorten, run = {
            "SM": (SecureMultiplication, "SM.batch_masked_products",
                   drop_last,
                   lambda p: p.run_batch(list(zip(values, values)))),
            "SM-square": (SecureMultiplication, "SM.batch_square_products",
                          drop_last, lambda p: p.run_square_batch(values)),
            "SSED": (SecureSquaredEuclideanDistance,
                     "SSED.masked_square_sums", drop_last,
                     lambda p: p.run_many(values[:2],
                                          [values[i:i + 2]
                                           for i in range(4)])),
            "SBD": (lambda s: SecureBitDecomposition(s, 3),
                    "SBD.batch_masked_parities", drop_last,
                    lambda p: p.run_batch(values)),
            "SMIN-alpha": (SecureMinimum, "SMIN.batch_masked_minimums",
                           lambda reply: [reply[0], reply[1][:-1]],
                           lambda p: p.run_batch(pairs)),
            "SMIN-row": (SecureMinimum, "SMIN.batch_masked_minimums",
                         lambda reply: [reply[0][:-1], reply[1]],
                         lambda p: p.run_batch(pairs)),
            "SMIN-bit": (SecureMinimum, "SMIN.batch_masked_minimums",
                         lambda reply: [[row[:-1] for row in reply[0]],
                                        reply[1]],
                         lambda p: p.run_batch(pairs)),
        }[case]
        replies = self.short_second_reply(setting, reply_tag, shorten)
        instance = protocol(setting)
        with pytest.raises(ProtocolError,
                           match=f"^{instance.name}: malformed .* reply$"):
            run(instance)
        assert len(replies) == 2


class TestExceptionHierarchy:
    def test_protocol_error_is_repro_error(self):
        assert issubclass(ProtocolError, ReproError)

    def test_all_library_exceptions_share_the_base(self):
        from repro import exceptions as exc
        for name in ("CryptoError", "ChannelError", "DatabaseError", "QueryError",
                     "SchemaError", "SerializationError", "ConfigurationError",
                     "EncryptionError", "DecryptionError", "KeyMismatchError",
                     "KeyGenerationError", "DomainError"):
            assert issubclass(getattr(exc, name), exc.ReproError)
