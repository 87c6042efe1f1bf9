"""Unit tests for the network substrate: channels, parties, stats, latency."""

from __future__ import annotations

from random import Random

import pytest

from repro.exceptions import ChannelError, ConfigurationError
from repro.network.channel import DuplexChannel, Message
from repro.network.latency import FixedLatency, ZeroLatency
from repro.network.party import DecryptorParty, EvaluatorParty, TwoPartySetting
from repro.network.stats import ProtocolRunStats, TrafficStats


class TestDuplexChannel:
    def test_send_receive_round_trip(self):
        channel = DuplexChannel("C1", "C2")
        channel.send("C1", 42, tag="answer")
        assert channel.receive("C2", expected_tag="answer") == 42

    def test_fifo_ordering(self):
        channel = DuplexChannel("C1", "C2")
        for value in range(5):
            channel.send("C1", value)
        assert [channel.receive("C2") for _ in range(5)] == list(range(5))

    def test_receive_without_message_raises(self):
        channel = DuplexChannel()
        with pytest.raises(ChannelError):
            channel.receive("C1")

    def test_unknown_endpoint_raises(self):
        channel = DuplexChannel()
        with pytest.raises(ChannelError):
            channel.send("C3", 1)
        with pytest.raises(ChannelError):
            channel.receive("C3")
        with pytest.raises(ChannelError):
            channel.pending("C3")

    def test_tag_mismatch_raises(self):
        channel = DuplexChannel()
        channel.send("C1", 1, tag="a")
        with pytest.raises(ChannelError):
            channel.receive("C2", expected_tag="b")

    def test_pending_counts(self):
        channel = DuplexChannel()
        assert channel.pending("C2") == 0
        channel.send("C1", 1)
        channel.send("C1", 2)
        assert channel.pending("C2") == 2
        channel.receive("C2")
        assert channel.pending("C2") == 1

    def test_traffic_accounting_for_integers(self):
        channel = DuplexChannel()
        channel.send("C1", [1, 2, 3])
        stats = channel.traffic["C1"]
        assert stats.messages == 1
        assert stats.plaintext_items == 3
        assert stats.ciphertexts == 0

    def test_traffic_accounting_for_ciphertexts(self, public_key):
        channel = DuplexChannel()
        channel.send("C1", [public_key.encrypt(1), public_key.encrypt(2)])
        stats = channel.traffic["C1"]
        assert stats.ciphertexts == 2
        assert stats.bytes_transferred > 0

    def test_traffic_accounting_for_nested_and_misc_payloads(self, public_key):
        channel = DuplexChannel()
        channel.send("C1", {"a": public_key.encrypt(1), "b": [1, "text", None]})
        stats = channel.traffic["C1"]
        assert stats.ciphertexts == 1
        assert stats.plaintext_items >= 2

    def test_unsupported_payload_raises(self):
        channel = DuplexChannel()
        with pytest.raises(ChannelError):
            channel.send("C1", object())

    def test_transcript_records_all_messages(self):
        channel = DuplexChannel()
        channel.send("C1", 1, tag="x")
        channel.send("C2", 2, tag="y")
        assert len(channel.transcript) == 2
        assert isinstance(channel.transcript[0], Message)
        assert [m.tag for m in channel.transcript] == ["x", "y"]
        c1_payloads = list(channel.transcript_payloads("C1"))
        assert c1_payloads == [1]

    def test_reset_accounting_requires_drained_queues(self):
        channel = DuplexChannel()
        channel.send("C1", 1)
        with pytest.raises(ChannelError):
            channel.reset_accounting()
        channel.receive("C2")
        channel.reset_accounting()
        assert channel.total_traffic().messages == 0
        assert channel.transcript == []

    def test_total_traffic_merges_directions(self):
        channel = DuplexChannel()
        channel.send("C1", 1)
        channel.send("C2", 2)
        assert channel.total_traffic().messages == 2


class TestLatencyModels:
    def test_zero_latency(self):
        assert ZeroLatency().delay_for_message(10_000) == 0.0

    def test_fixed_latency(self):
        assert FixedLatency(0.25).delay_for_message(1) == 0.25

    def test_channel_accumulates_simulated_delay(self):
        channel = DuplexChannel(latency_model=FixedLatency(0.5))
        channel.send("C1", 1)
        channel.send("C2", 2)
        assert channel.simulated_delay_seconds == pytest.approx(1.0)


class TestTrafficStats:
    def test_record_and_snapshot(self):
        stats = TrafficStats()
        stats.record(ciphertexts=2, plaintext_items=1, payload_bytes=64)
        assert stats.snapshot() == {
            "messages": 1,
            "ciphertexts": 2,
            "plaintext_items": 1,
            "bytes_transferred": 64,
        }

    def test_merge_and_reset(self):
        first = TrafficStats(messages=1, ciphertexts=2, bytes_transferred=10)
        second = TrafficStats(messages=3, plaintext_items=4, bytes_transferred=5)
        merged = first.merged_with(second)
        assert merged.messages == 4
        assert merged.ciphertexts == 2
        assert merged.plaintext_items == 4
        assert merged.bytes_transferred == 15
        first.reset()
        assert first.messages == 0


class TestProtocolRunStats:
    def test_totals(self):
        stats = ProtocolRunStats(protocol="SM", c1_encryptions=2, c2_encryptions=1,
                                 c2_decryptions=2, c1_exponentiations=3,
                                 messages=2)
        assert stats.total_encryptions == 3
        assert stats.total_decryptions == 2
        assert stats.total_exponentiations == 3


class TestParties:
    def test_party_must_be_channel_endpoint(self, public_key):
        channel = DuplexChannel("C1", "C2")
        with pytest.raises(ConfigurationError):
            EvaluatorParty("C3", public_key, channel)

    def test_party_send_receive(self, small_keypair):
        channel = DuplexChannel("C1", "C2")
        evaluator = EvaluatorParty("C1", small_keypair.public_key, channel)
        decryptor = DecryptorParty("C2", small_keypair.private_key, channel)
        evaluator.send("hello", tag="greeting")
        assert decryptor.receive(expected_tag="greeting") == "hello"

    def test_decryptor_decrypts_both_ways(self, small_keypair):
        channel = DuplexChannel("C1", "C2")
        decryptor = DecryptorParty("C2", small_keypair.private_key, channel)
        cipher = small_keypair.public_key.encrypt(-9)
        assert decryptor.decrypt_signed(cipher) == -9
        assert decryptor.decrypt_residue(cipher) == small_keypair.public_key.n - 9

    def test_random_helpers_in_range(self, setting):
        for _ in range(50):
            assert 1 <= setting.evaluator.random_nonzero() < setting.public_key.n

    def test_two_party_setting_create(self, small_keypair):
        setting = TwoPartySetting.create(small_keypair, rng=Random(0))
        assert setting.evaluator.name == "C1"
        assert setting.decryptor.name == "C2"
        assert setting.public_key == small_keypair.public_key

    def test_reset_counters(self, setting):
        setting.evaluator.encrypt(5)
        setting.reset_counters()
        assert setting.public_key.counter.encryptions == 0
        assert setting.channel.total_traffic().messages == 0

    def test_party_encrypt_uses_shared_key(self, setting, small_keypair):
        cipher = setting.evaluator.encrypt(77)
        assert small_keypair.private_key.decrypt(cipher) == 77
