"""Unit tests for the shared two-party protocol machinery (base class helpers)."""

from __future__ import annotations

from random import Random

import pytest

from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine
from repro.exceptions import ConfigurationError, ProtocolError, ReproError
from repro.network.party import TwoPartySetting
from repro.protocols.base import (
    MASK_SBD,
    MASK_SHORT,
    MASK_SLOT,
    MASK_ZN,
    PIPELINE_MIN_ITEMS,
    STATISTICAL_SECURITY,
    TwoPartyProtocol,
    mask_range,
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


BITS = 5


def masking_protocol(keypair, engine=None, seed=1) -> TwoPartyProtocol:
    """A protocol whose P1 draws its masks with ``Random(seed)``."""
    setting = TwoPartySetting.create(keypair, rng=Random(seed))
    setting.attach_engine(engine)
    return TwoPartyProtocol(setting)


def warmed_engine(key, factors: int, target: int = 32) -> PrecomputeEngine:
    engine = PrecomputeEngine(key, rng=Random(2),
                              config=PrecomputeConfig(obfuscators=target))
    engine.refill(budget=factors)
    return engine


class TestMaskDraws:
    """The one mask draw: P1's rng samples in :func:`mask_range`, P1's
    ``encrypt_batch`` encrypts, from its engine while it has factors."""

    def test_each_kind_has_one_range(self, public_key):
        n, spread = public_key.n, 1 << (BITS + STATISTICAL_SECURITY)
        assert mask_range(MASK_ZN, n) == (0, n)
        assert mask_range(MASK_SBD, n, bits=BITS) == (0, n - 2 ** BITS)
        assert mask_range(MASK_SHORT, n, bits=BITS) == (n - spread, n)
        assert mask_range(MASK_SLOT, n, bits=BITS) == (
            2 ** (BITS - 1), 2 ** (BITS - 1) + spread)

    @pytest.mark.parametrize("warmed", [0, 3, 16],
                             ids=["cold", "half-drained", "warm"])
    def test_masks_keep_their_range_and_decrypt_to_r(self, small_keypair,
                                                     warmed):
        """Range per kind, whatever share of the draw the pool covers."""
        public_key = small_keypair.public_key
        protocol = masking_protocol(
            small_keypair, warmed_engine(public_key, warmed, max(warmed, 1)))
        for kind in (MASK_ZN, MASK_SBD, MASK_SHORT, MASK_SLOT):
            low, high = mask_range(kind, public_key.n, bits=BITS)
            for r, enc_r in protocol.take_masks(4, kind, bits=BITS):
                assert low <= r < high
                assert small_keypair.private_key.raw_decrypt(enc_r.value) == r

    def test_unknown_kinds_and_missing_bits_are_refused(self, setting):
        protocol = TwoPartyProtocol(setting)
        with pytest.raises(ConfigurationError, match="unknown mask kind"):
            protocol.take_masks(1, "gaussian")
        for kind in (MASK_SBD, MASK_SHORT, MASK_SLOT):
            with pytest.raises(ConfigurationError, match="positive bits"):
                protocol.take_masks(1, kind)

    def test_one_counted_encryption_per_mask_and_pool_hits_by_count(
            self, small_keypair):
        public_key = small_keypair.public_key
        engine = warmed_engine(public_key, 32)
        protocol = masking_protocol(small_keypair, engine)
        before = public_key.counter.encryptions
        protocol.take_masks(5, MASK_ZN)
        protocol.take_masks(3, MASK_SHORT, bits=BITS)
        assert public_key.counter.encryptions == before + 8
        assert (engine.hits, engine.misses) == (8, 0)

    def test_a_drained_engine_falls_back_to_fresh_factors(self,
                                                          small_keypair):
        engine = warmed_engine(small_keypair.public_key, 2)
        tuples = masking_protocol(small_keypair, engine).take_masks(5)
        for r, enc_r in tuples:
            assert small_keypair.private_key.raw_decrypt(enc_r.value) == r
        # no ciphertext (hence no obfuscation factor) repeats
        assert len({enc_r.value for _, enc_r in tuples}) == 5
        assert (engine.hits, engine.misses) == (2, 3)

    def test_the_engine_samples_nothing(self, small_keypair):
        """A seeded P1 draws the same masks with no engine, a cold one and
        a warm one."""
        draws = [[r for r, _ in masking_protocol(small_keypair, engine,
                                                 seed=5).take_masks(
                      6, MASK_SHORT, bits=BITS)]
                 for engine in (None,
                                warmed_engine(small_keypair.public_key, 0),
                                warmed_engine(small_keypair.public_key, 8))]
        assert draws[0] == draws[1] == draws[2]


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
                                      "SMIN-bits", "SMIN-bit",
                                      "SMIN-selection", "SMIN-t"])
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
            "SMIN-bits": (SecureMinimum, "SMIN.batch_difference_bits",
                          drop_last, lambda p: p.run_batch(pairs)),
            "SMIN-bit": (SecureMinimum, "SMIN.batch_difference_bits",
                         lambda reply: [row[:-1] for row in reply],
                         lambda p: p.run_batch(pairs)),
            "SMIN-selection": (SecureMinimum, "SMIN.batch_selected_minimums",
                               drop_last, lambda p: p.run_batch(pairs)),
            "SMIN-t": (SecureMinimum, "SMIN.batch_selected_minimums",
                       lambda reply: [row[:-1] for row in reply],
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
