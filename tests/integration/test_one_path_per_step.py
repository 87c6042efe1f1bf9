"""One implementation per protocol step.

The scalar entry points of SM / SBD / SMIN are the one-item batch, so one
scalar call is its batched rounds on the wire (two half-batches in flight
once a round has ``PIPELINE_MIN_ITEMS`` items; the cost-model harness holds
every call to its counts); and the in-process scan's chunk worker runs
``SSED.run_many`` on a worker-local two-party setting, so what its decryptor
sees is masked, a resubmitted task reproduces its distances, and the
driver's own counters never see the scan.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.core.parallel import (
    ParallelSkNNBasic,
    ShardedCloud,
    ssed_chunk_worker,
)
from repro.core.roles import QueryClient
from repro.crypto.backend import get_backend
from repro.crypto.paillier import PaillierPrivateKey
from repro.db.knn import LinearScanKNN
from repro.protocols.base import PIPELINE_MIN_ITEMS
from repro.protocols.encoding import bits_to_int
from repro.protocols.sbd import SecureBitDecomposition
from repro.protocols.sm import SecureMultiplication
from repro.protocols.smin import SecureMinimum
from tests.integration.helpers import assert_stats_are_row_sums

BITS = 6


class TestOneScalarCallIsOneRound:
    def test_sm_run_is_two_messages(self, setting):
        public = setting.public_key
        enc_a, enc_b = public.encrypt(-12), public.encrypt(11)
        setting.reset_counters()
        product = SecureMultiplication(setting).run(enc_a, enc_b)
        assert [m.tag for m in setting.channel.transcript] == [
            "SM.batch_masked_operands", "SM.batch_masked_products"]
        assert setting.decryptor.decrypt_signed(product) == -132

    def test_sbd_run_is_two_messages_per_bit(self, setting):
        enc_z = setting.public_key.encrypt(45)
        setting.reset_counters()
        bits = SecureBitDecomposition(setting, BITS).run(enc_z)
        assert [m.tag for m in setting.channel.transcript] == [
            "SBD.batch_masked_values", "SBD.batch_masked_parities"] * BITS
        decrypt = setting.decryptor.decrypt_signed
        assert bits_to_int([decrypt(bit) for bit in bits]) == 45

    def test_smin_run_is_two_rounds(self, setting):
        """The masked-difference round, then the comparison round, over the
        single pair, which is below the split: no bit decomposition runs
        before them."""
        public = setting.public_key
        enc_u, enc_v = public.encrypt(37), public.encrypt(22)
        setting.reset_counters()
        minimum = SecureMinimum(setting).run(enc_u, enc_v, BITS)
        assert PIPELINE_MIN_ITEMS > 1
        assert [m.tag for m in setting.channel.transcript] == [
            "SMIN.batch_masked_differences", "SMIN.batch_difference_bits",
            "SMIN.batch_comparisons", "SMIN.batch_selected_minimums"]
        assert setting.channel.transcript[0].payload[0] == BITS
        [bits] = setting.channel.transcript[1].payload
        [row] = setting.channel.transcript[2].payload
        assert (len(bits), len(row)) == (BITS + 1, BITS + 3)
        assert setting.decryptor.decrypt_signed(minimum) == 22


class TestChunkWorkerRunsTheProtocol:
    RECORDS = [[3, 40, 7], [0, 0, 0], [63, 1, 30], [12, 12, 12]]
    QUERIES = [[5, 5, 5], [63, 0, 63]]

    def task(self, keypair, seed: int):
        public, private = keypair.public_key, keypair.private_key
        rng = Random(5)
        return (0,
                [[c.value for c in public.encrypt_vector(row, rng=rng)]
                 for row in self.RECORDS],
                [[c.value for c in public.encrypt_vector(query, rng=rng)]
                 for query in self.QUERIES],
                public.n, private.p, private.q, seed, get_backend().name,
                None, 6)  # the values are 6-bit

    def test_decryptor_sees_masked_values_and_a_resubmitted_task_repeats(
            self, small_keypair, monkeypatch):
        """Equal inputs under two seeds: every value the worker's decryptor
        sees inside SSED differs, the revealed distances do not; the same
        task (same seed) returns the same distances again."""
        seen: list[list[int]] = []
        decrypt = PaillierPrivateKey.decrypt_residue_batch

        def recording_decrypt(self, ciphertexts):
            seen.append(decrypt(self, ciphertexts))
            return seen[-1]

        monkeypatch.setattr(PaillierPrivateKey, "decrypt_residue_batch",
                            recording_decrypt)
        first = ssed_chunk_worker(self.task(small_keypair, seed=1))
        views_one, seen = seen, []
        second = ssed_chunk_worker(self.task(small_keypair, seed=2))
        views_two = seen

        distances = [[sum((a - b) ** 2 for a, b in zip(record, query))
                      for query in self.QUERIES] for record in self.RECORDS]
        assert first == second == (0, distances)
        # per query: C2's SSED step on each half of the scan (the task has
        # PIPELINE_MIN_ITEMS records), then SkNN_b's distance decryption
        half = len(self.RECORDS) // 2
        assert len(self.RECORDS) == 2 * half >= PIPELINE_MIN_ITEMS
        assert len(views_one) == len(views_two) == 3 * len(self.QUERIES)
        for index, (one, two) in enumerate(zip(views_one, views_two)):
            if index % 3 < 2:
                assert len(one) == half * 3
                assert all(a != b for a, b in zip(one, two))
            else:
                assert one == two == [row[index // 3] for row in distances]

        assert ssed_chunk_worker(self.task(small_keypair, seed=1)) == first


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("plan", ["sharded", "parallel"])
def test_driver_side_stats_are_the_delivery_phase_only(deployed_cloud,
                                                       tiny_table, backend,
                                                       plan):
    """The scan's Paillier work happens on the workers' own key objects:
    the driver's report counts the delivery phase and nothing else —
    ``k * m`` mask encryptions at C1 and ``k * m`` decryptions at C2."""
    store = (ShardedCloud(deployed_cloud, shards=2, workers=2,
                          backend=backend) if plan == "sharded"
             else ParallelSkNNBasic(deployed_cloud, workers=2,
                                    backend=backend))
    k, m = 2, tiny_table.dimensions
    query = list(tiny_table.records[1].values)
    client = QueryClient(deployed_cloud.c1.public_key, m, rng=Random(6))
    with store:
        shares = store.run_with_report(client.encrypt_query(query), k)
    stats = store.last_report.stats
    assert (stats.c1_encryptions, stats.c2_decryptions) == (k * m, k * m)
    assert (stats.c1_exponentiations, stats.c2_encryptions,
            stats.c2_exponentiations) == (0, 0, 0)
    assert stats.messages == 1  # the delivery; the scan's traffic is not here
    assert_stats_are_row_sums(store.last_report)
    assert client.reconstruct(shares) == [
        r.record.values for r in LinearScanKNN(tiny_table).query(query, k)]
