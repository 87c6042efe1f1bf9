"""Unit tests for the core role/cloud components (outside full protocol runs)."""

from __future__ import annotations

from random import Random

import pytest

from repro.core.cloud import CloudC1, CloudC2, FederatedCloud
from repro.core.roles import DataOwner, QueryClient, ResultShares
from repro.core.sknn_base import SkNNRunReport, top_k
from repro.core.system import SkNNSystem
from repro.db.datasets import heart_disease_table, synthetic_uniform
from repro.exceptions import ConfigurationError, QueryError
from repro.network.channel import DuplexChannel
from repro.network.latency import FixedLatency
from repro.network.stats import ProtocolRunStats


class TestDataOwner:
    def test_generates_keys_of_requested_size(self, tiny_table):
        owner = DataOwner(tiny_table, key_size=128, rng=Random(1))
        assert owner.keypair.key_size in (127, 128)

    def test_reuses_supplied_keypair(self, tiny_table, small_keypair):
        owner = DataOwner(tiny_table, keypair=small_keypair)
        assert owner.public_key == small_keypair.public_key

    def test_encrypt_database_round_trips(self, tiny_table, small_keypair):
        owner = DataOwner(tiny_table, keypair=small_keypair, rng=Random(2))
        encrypted = owner.encrypt_database()
        assert len(encrypted) == len(tiny_table)
        decrypted = encrypted.decrypt(small_keypair.private_key)
        assert decrypted.row_values() == tiny_table.row_values()

    def test_distance_bit_length_comes_from_schema(self):
        table = heart_disease_table(include_diagnosis=False)
        owner = DataOwner(table, key_size=128, rng=Random(3))
        assert owner.distance_bit_length() == table.schema.distance_bit_length()


class TestQueryClient:
    def test_rejects_nonpositive_dimensions(self, public_key):
        with pytest.raises(ConfigurationError):
            QueryClient(public_key, dimensions=0)

    def test_encrypt_query_checks_arity(self, public_key):
        client = QueryClient(public_key, dimensions=3, rng=Random(4))
        with pytest.raises(QueryError):
            client.encrypt_query([1, 2])

    def test_encrypt_query_records_cost(self, public_key):
        client = QueryClient(public_key, dimensions=2, rng=Random(5))
        client.encrypt_query([1, 2])
        assert client.last_cost.encrypt_query_seconds > 0

    def test_reconstruct_inverts_masking(self, small_keypair):
        public = small_keypair.public_key
        client = QueryClient(public, dimensions=2, rng=Random(6))
        true_record = (17, 23)
        masks = [5, public.n - 3]          # include a mask that wraps mod N
        masked = [(value + mask) % public.n
                  for value, mask in zip(true_record, masks)]
        shares = ResultShares(masks_from_c1=[masks],
                              masked_values_from_c2=[masked],
                              modulus=public.n)
        assert client.reconstruct(shares) == [true_record]

    def test_reconstruct_records_cost(self, small_keypair):
        client = QueryClient(small_keypair.public_key, dimensions=1,
                             rng=Random(12))
        shares = ResultShares(masks_from_c1=[[1]], masked_values_from_c2=[[3]],
                              modulus=small_keypair.public_key.n)
        assert client.reconstruct(shares) == [(2,)]
        assert client.last_cost.reconstruct_seconds > 0


class TestFederatedCloud:
    def test_deploy_assigns_keys_correctly(self, small_keypair):
        cloud = FederatedCloud.deploy(small_keypair, rng=Random(7))
        assert cloud.c1.public_key == small_keypair.public_key
        assert cloud.c2.private_key.public_key == small_keypair.public_key
        assert not hasattr(cloud.c1, "private_key")

    def test_c1_requires_hosted_database(self, small_keypair):
        cloud = FederatedCloud.deploy(small_keypair, rng=Random(8))
        with pytest.raises(ConfigurationError):
            _ = cloud.c1.encrypted_table

    def test_hosted_table_is_served(self, small_keypair, tiny_table):
        cloud = FederatedCloud.deploy(small_keypair, rng=Random(9))
        table = DataOwner(tiny_table, keypair=small_keypair,
                          rng=Random(13)).encrypt_database()
        cloud.c1.host_database(table)
        assert cloud.c1.encrypted_table is table
        assert len(cloud.c1.encrypted_table) == len(tiny_table)

    def test_setting_view_shares_channel(self, small_keypair):
        cloud = FederatedCloud.deploy(small_keypair, rng=Random(10))
        setting = cloud.setting
        assert setting.evaluator is cloud.c1
        assert setting.decryptor is cloud.c2
        assert setting.channel is cloud.channel

    def test_reset_counters(self, small_keypair):
        cloud = FederatedCloud.deploy(small_keypair, rng=Random(11))
        cloud.c1.encrypt(5)
        cloud.reset_counters()
        assert cloud.c1.public_key.counter.encryptions == 0

    def test_latency_model_accumulates_delay(self, small_keypair, tiny_table):
        """With a non-zero latency model the channel tracks simulated delay."""
        from repro.core.roles import DataOwner, QueryClient
        from repro.core.sknn_basic import SkNNBasic

        cloud = FederatedCloud.deploy(small_keypair, rng=Random(12),
                                      latency_model=FixedLatency(0.001))
        owner = DataOwner(tiny_table, keypair=small_keypair, rng=Random(13))
        cloud.c1.host_database(owner.encrypt_database())
        client = QueryClient(small_keypair.public_key, tiny_table.dimensions,
                             rng=Random(14))
        SkNNBasic(cloud).run(client.encrypt_query([1, 1, 1]), 1)
        assert cloud.channel.simulated_delay_seconds > 0


class TestCloudServers:
    def test_c1_and_c2_are_channel_endpoints(self, small_keypair):
        channel = DuplexChannel("C1", "C2")
        c1 = CloudC1(small_keypair.public_key, channel)
        c2 = CloudC2(small_keypair.private_key, channel)
        c1.send("ping", tag="test")
        assert c2.receive(expected_tag="test") == "ping"


class TestRunReports:
    def test_synthetic_workload_sizes_match_parameters(self):
        table = synthetic_uniform(n_records=17, dimensions=5, distance_bits=10,
                                  seed=1)
        assert len(table) == 17
        assert table.dimensions == 5


class TestReportMerge:
    """``SkNNRunReport.merge_remote`` as a pure function of its inputs."""

    COUNTED = ("c1_encryptions", "c1_exponentiations",
               "c1_homomorphic_additions", "c2_encryptions", "c2_decryptions",
               "c2_exponentiations", "messages", "ciphertexts_exchanged",
               "bytes_transferred")

    def report(self, party: str, n_records: int, base: int, wall: float,
               span_starts, extra=None) -> SkNNRunReport:
        """A report whose ``i``-th counted field is ``base + i``."""
        stats = ProtocolRunStats(
            protocol=party, wall_time_seconds=wall, extra=dict(extra or {}),
            **{name: base + i for i, name in enumerate(self.COUNTED)})
        return SkNNRunReport(
            protocol=party, n_records=n_records, dimensions=2, k=1,
            key_size=128, distance_bits=None, wall_time_seconds=wall,
            stats=stats,
            cost_breakdown=[{"phase": "scan", "party": party,
                             "seconds": wall, "ops": {"encryptions": base}}],
            trace={"trace_id": party,
                   "spans": [{"name": f"{party}.{start}", "start": start}
                             for start in span_starts]})

    def test_merges_a_c2_window_and_two_shard_reports_exactly(self):
        own = self.report("C1", 11, base=100, wall=1.5, span_starts=())
        own.trace = None
        own_rows = [dict(row) for row in own.cost_breakdown]
        shards = [
            self.report("C1-shard0", 6, base=10, wall=0.7,
                        span_starts=(5.0, 2.0),
                        extra={"c2_homomorphic_additions": 1}),
            self.report("C1-shard1", 5, base=20, wall=0.6,
                        span_starts=(3.0,),
                        extra={"c2_homomorphic_additions": 1}),
        ]
        window = {
            "spans": [{"name": "p2.SkNN", "start": 4.0}],
            "cost": [{"phase": "SkNN", "party": "C2", "seconds": 0.2,
                      "ops": {"decryptions": 5, "homomorphic_additions": 2}},
                     {"phase": "other", "party": "C2", "seconds": 0.0,
                      "ops": {"encryptions": 3, "exponentiations": 4,
                              "pool_hits": 3}}],
        }
        own.merge_remote("trace-1", [{"name": "query.SkNNb", "start": 1.0}],
                         c2_window=window, shard_reports=shards)

        from_window = {"c2_encryptions": 3, "c2_exponentiations": 4,
                       "c2_decryptions": 5}
        for i, name in enumerate(self.COUNTED):
            assert getattr(own.stats, name) == (
                (100 + i) + (10 + i) + (20 + i) + from_window.get(name, 0)
            ), name
        assert own.stats.extra == {"c2_homomorphic_additions": 2 + 1 + 1,
                                   "shard_records_scanned": 6 + 5}
        # The run keeps its own clock and label; only this party's rows
        # partition it, the others ride along after them.
        assert own.wall_time_seconds == own.stats.wall_time_seconds == 1.5
        assert own.stats.protocol == "C1"
        assert own.cost_breakdown[:1] == own_rows
        assert [row["party"] for row in own.cost_breakdown] == [
            "C1", "C2", "C2", "C1-shard0", "C1-shard1"]
        assert own.trace["trace_id"] == "trace-1"
        assert [span["start"] for span in own.trace["spans"]] == [
            1.0, 2.0, 3.0, 4.0, 5.0]
        assert SkNNRunReport.from_payload(own.as_payload()) == own

    def test_without_remote_parties_only_the_trace_is_set(self):
        own = self.report("C1", 4, base=7, wall=0.3, span_starts=())
        before = own.stats.as_payload()
        own.merge_remote("t", [{"name": "b", "start": 2.0},
                               {"name": "a", "start": 1.0}])
        assert own.stats.as_payload() == before
        assert len(own.cost_breakdown) == 1
        assert [span["name"] for span in own.trace["spans"]] == ["a", "b"]


class TestSelectionRule:
    def test_top_k_orders_ties_by_global_index(self):
        pairs = [(4, 6), (1, 5), (4, 0), (1, 2), (0, 9), (4, 3)]
        assert top_k(pairs, 1) == [(0, 9)]
        assert top_k(pairs, 4) == [(0, 9), (1, 2), (1, 5), (4, 0)]
        assert top_k(pairs, len(pairs)) == sorted(pairs)
        # a lazily produced stream selects the same pairs
        assert top_k(iter(pairs), 3) == [(0, 9), (1, 2), (1, 5)]


class TestDistanceBitsOverride:
    """``l`` is checked against the schema when the system is built."""

    def test_too_small_override_names_both_values(self, tiny_table):
        required = tiny_table.schema.distance_bit_length()
        with pytest.raises(ConfigurationError) as excinfo:
            SkNNSystem.setup(tiny_table, key_size=128, mode="secure",
                             distance_bits=required - 1, rng=Random(1))
        assert f"distance_bits={required - 1}" in str(excinfo.value)
        assert f"{required} bits" in str(excinfo.value)
        # the constructor refuses it as well, not only the setup helper
        owner = DataOwner(tiny_table, key_size=128, rng=Random(2))
        cloud = FederatedCloud.deploy(owner.keypair, rng=Random(3))
        client = QueryClient(owner.public_key, tiny_table.dimensions)
        with pytest.raises(ConfigurationError):
            SkNNSystem(owner, cloud, client, mode="basic",
                       distance_bits=required - 1)

    def test_an_override_too_wide_for_the_key_is_refused_at_setup(
            self, tiny_table):
        """SMIN compares ``l + 1`` bits once records carry their flag, and
        its marker needs ``3^(l+2) < 2^(K/2-1)``: ``l <= 37`` at K=128.
        SkNN_b compares nothing and keeps any ``l``."""
        with pytest.raises(ConfigurationError, match="too wide"):
            SkNNSystem.setup(tiny_table, key_size=128, mode="secure",
                             distance_bits=38, rng=Random(5))
        assert SkNNSystem.setup(tiny_table, key_size=128, mode="secure",
                                distance_bits=37,
                                rng=Random(5)).distance_bits == 37
        assert SkNNSystem.setup(tiny_table, key_size=128, mode="basic",
                                distance_bits=38,
                                rng=Random(5)).distance_bits == 38

    @pytest.mark.parametrize("extra", [0, 3])
    def test_equal_or_larger_override_is_kept(self, tiny_table, extra):
        required = tiny_table.schema.distance_bit_length()
        system = SkNNSystem.setup(tiny_table, key_size=128, mode="basic",
                                  distance_bits=required + extra,
                                  rng=Random(4))
        assert system.distance_bits == required + extra
