"""Unit tests for the shared two-party protocol machinery (base class helpers)."""

from __future__ import annotations

import pytest

from repro.exceptions import ProtocolError, ReproError
from repro.protocols.base import ProtocolResult, TwoPartyProtocol


class _EchoProtocol(TwoPartyProtocol):
    """Minimal protocol used to exercise the base-class instrumentation."""

    name = "ECHO"

    def run(self, value: int):
        encrypted = self.p1.encrypt(value)
        self.p1.send(encrypted, tag="ECHO.value")
        received = self.p2.receive(expected_tag="ECHO.value")
        return self.p2.decrypt_signed(received)


class TestCiphertextHelpers:
    def test_sub_is_homomorphic_subtraction(self, setting, private_key):
        protocol = TwoPartyProtocol(setting)
        result = protocol.sub(setting.public_key.encrypt(30),
                              setting.public_key.encrypt(12))
        assert private_key.decrypt(result) == 18

    def test_scale_multiplies_by_plaintext(self, setting, private_key):
        protocol = TwoPartyProtocol(setting)
        result = protocol.scale(setting.public_key.encrypt(7), 6)
        assert private_key.decrypt(result) == 42

    def test_scale_reduces_scalar_mod_n(self, setting, private_key):
        protocol = TwoPartyProtocol(setting)
        n = setting.public_key.n
        result = protocol.scale(setting.public_key.encrypt(7), n + 2)
        assert private_key.decrypt(result) == 14

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


class TestInstrumentation:
    def test_instrumented_run_returns_output_and_stats(self, setting):
        protocol = _EchoProtocol(setting)
        result = protocol.run_instrumented(-41)
        assert isinstance(result, ProtocolResult)
        assert result.output == -41
        assert result.stats.protocol == "ECHO"
        assert result.stats.total_encryptions == 1
        assert result.stats.total_decryptions == 1
        assert result.stats.messages == 1
        assert result.stats.wall_time_seconds > 0

    def test_instrumentation_is_incremental(self, setting):
        """A second run measures only its own operations, not the first run's."""
        protocol = _EchoProtocol(setting)
        protocol.run_instrumented(1)
        second = protocol.run_instrumented(2)
        assert second.stats.total_encryptions == 1
        assert second.stats.ciphertexts_exchanged == 1


class TestExceptionHierarchy:
    def test_protocol_error_is_repro_error(self):
        assert issubclass(ProtocolError, ReproError)

    def test_all_library_exceptions_share_the_base(self):
        from repro import exceptions as exc
        for name in ("CryptoError", "ChannelError", "DatabaseError", "QueryError",
                     "SchemaError", "SerializationError", "ConfigurationError",
                     "EncryptionError", "DecryptionError", "KeyMismatchError",
                     "KeyGenerationError", "DomainError", "ProtocolAbortError"):
            assert issubclass(getattr(exc, name), exc.ReproError)
