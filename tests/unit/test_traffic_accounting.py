"""Per-tag traffic accounting: identical across transports, additive on merge.

Satellite of the telemetry PR.  The in-memory ``DuplexChannel`` sizes its
traffic with the exact TCP wire encoding, so for *every* payload shape the
per-tag byte and message counts must match what a real socket channel pair
(``MuxChannel`` default contexts) measures on both ends of a socket — and
merging shard-level ``TrafficStats`` must equal the sum of the parts, per tag
and in aggregate.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.channel import DuplexChannel
from repro.network.stats import TrafficStats
from repro.telemetry import tracing
from repro.transport.wire import WireCodec
from tests.conftest import socket_channel_pair

TAGS = ("SM.masked_operands", "SSED.batch", "SkNN.masked_results",
        "transport.query", "")


def payload_strategy(ciphertext_values):
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
        st.text(max_size=8),
        st.sampled_from(ciphertext_values),
    )
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=5), children, max_size=3),
        ),
        max_leaves=10,
    )


class TestCrossTransportParity:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_per_tag_counts_identical_for_every_payload_shape(
            self, data, public_key):
        ciphertexts = [public_key.encrypt(v) for v in (-2, 0, 9)]
        batch = data.draw(st.lists(
            st.tuples(st.sampled_from(TAGS),
                      payload_strategy(ciphertexts)),
            min_size=1, max_size=6))

        duplex = DuplexChannel("C1", "C2")
        left, right = socket_channel_pair(WireCodec(public_key))
        try:
            for tag, payload in batch:
                duplex.send("C1", payload, tag=tag)
                duplex.receive("C2")
                left.send("C1", payload, tag=tag)
                right.receive("C2")

            simulated = duplex.traffic["C1"]
            sent = left.traffic["C1"]        # sender-side measurement
            received = right.traffic["C1"]   # receiver attributes to sender
            for measured in (sent, received):
                assert measured.per_tag_snapshot() == \
                    simulated.per_tag_snapshot()
                assert measured.snapshot() == simulated.snapshot()
        finally:
            left.connection.close()
            right.connection.close()

    def test_trace_context_costs_the_same_bytes_on_both_transports(
            self, public_key):
        """With a trace active both transports stamp the envelope, so the
        accounting stays comparable (and bigger than the untraced run)."""
        payload = [public_key.encrypt(3), [1, 2]]

        def run_both():
            duplex = DuplexChannel("C1", "C2")
            left, right = socket_channel_pair(WireCodec(public_key))
            try:
                duplex.send("C1", payload, tag="SM.t")
                duplex.receive("C2")
                left.send("C1", payload, tag="SM.t")
                right.receive("C2")
                return (duplex.traffic["C1"].bytes_transferred,
                        left.traffic["C1"].bytes_transferred,
                        right.traffic["C1"].bytes_transferred)
            finally:
                left.connection.close()
                right.connection.close()

        plain = run_both()
        with tracing.trace("query.test", party="C1") as root:
            traced = run_both()
        tracing.get_tracer().take(root.trace_id)  # drain the collector
        assert plain[0] == plain[1] == plain[2]
        assert traced[0] == traced[1] == traced[2]
        assert traced[0] > plain[0]


class TestMergedStats:
    @given(shards=st.lists(
        st.lists(st.tuples(st.sampled_from(TAGS),
                           st.integers(min_value=0, max_value=3),
                           st.integers(min_value=0, max_value=2),
                           st.integers(min_value=0, max_value=5000)),
                 max_size=5),
        min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_merged_shard_stats_equal_sum_of_parts(self, shards):
        parts = []
        for shard in shards:
            stats = TrafficStats()
            for tag, ciphertexts, plaintexts, size in shard:
                stats.record(ciphertexts, plaintexts, size, tag=tag)
            parts.append(stats)

        merged = TrafficStats()
        for part in parts:
            merged = merged.merged_with(part)

        for key, value in merged.snapshot().items():
            assert value == sum(part.snapshot()[key] for part in parts)
        expected_tags: dict[str, dict[str, int]] = {}
        for part in parts:
            for tag, counts in part.per_tag_snapshot().items():
                bucket = expected_tags.setdefault(
                    tag, {"messages": 0, "bytes": 0})
                bucket["messages"] += counts["messages"]
                bucket["bytes"] += counts["bytes"]
        assert merged.per_tag_snapshot() == expected_tags
        # Merging must not alias the parts' dictionaries.
        merged.record(0, 0, 1, tag="post-merge")
        assert all("post-merge" not in part.per_tag_snapshot()
                   for part in parts)
