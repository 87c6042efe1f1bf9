"""Security-property tests: what each party is allowed (and not allowed) to see.

These tests check the *observable* security claims of Section 4.3 on the real
protocol transcripts:

* SkNN_b deliberately reveals plaintext distances and the top-k index list to
  the clouds — the tests document that leakage explicitly.
* SkNN_m must not reveal distances or access patterns: every value C2
  decrypts during the minimum-selection phase is either zero (at a random,
  permuted position) or a uniformly random-looking value, the indicator
  vector exchanged between the clouds stays encrypted, and re-running the same
  query produces a different transcript (semantic security / re-randomization).
* The distance scan both protocols share (the fused SSED round) shows C2 only
  ``difference + mask mod N`` under a fresh uniform mask per value, and C1 only
  one fresh ciphertext per record.
* Bob's shares individually reveal nothing: the masks from C1 are uniform and
  the masked values from C2 are uniform; only their combination yields data.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.core.cloud import FederatedCloud
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.crypto.paillier import Ciphertext
from repro.db.datasets import synthetic_uniform
from repro.db.knn import LinearScanKNN

from tests.integration.helpers import assert_valid_knn_answer


@pytest.fixture(scope="module")
def security_table():
    return synthetic_uniform(n_records=8, dimensions=2, distance_bits=7, seed=77)


def deploy(table, keypair, seed):
    owner = DataOwner(table, keypair=keypair, rng=Random(seed))
    cloud = FederatedCloud.deploy(keypair, rng=Random(seed + 1))
    cloud.c1.host_database(owner.encrypt_database())
    client = QueryClient(keypair.public_key, table.dimensions, rng=Random(seed + 2))
    return cloud, client


class TestBasicProtocolLeakage:
    def test_c2_sees_plaintext_distances(self, security_table, small_keypair):
        """SkNN_b's documented leakage: the index/distance pairs reach C2."""
        cloud, client = deploy(security_table, small_keypair, seed=300)
        protocol = SkNNBasic(cloud)
        query = [3, 3]
        protocol.run(client.encrypt_query(query), 2)
        # The first message from C1 after the SSED phase carries (i, E(d_i));
        # decrypting them equals the true distances — this is the leak.
        oracle = LinearScanKNN(security_table)
        true_distances = {
            index: security_table.squared_distance(record.record_id, query)
            for index, record in enumerate(security_table)
        }
        # The payload is [k, [(i, E(d_i)), ...]] — k rides along so a remote
        # C2 can run the selection without out-of-band context.
        indexed_messages = [
            payload[1] for payload in cloud.channel.transcript_payloads("C1")
            if isinstance(payload, list) and len(payload) == 2
            and isinstance(payload[1], list) and payload[1]
            and isinstance(payload[1][0], tuple)
        ]
        assert indexed_messages, "expected the distance list on the wire"
        decrypted = {
            index: small_keypair.private_key.decrypt_raw_residue(cipher)
            for index, cipher in indexed_messages[0]
        }
        assert decrypted == true_distances
        # ... and the oracle's winners are exactly the indices C2 returns.
        index_lists = [
            payload for payload in cloud.channel.transcript_payloads("C2")
            if isinstance(payload, list) and payload
            and all(isinstance(item, int) for item in payload)
        ]
        expected_ids = [r.record_id for r in oracle.query(query, 2)]
        expected_indices = [int(record_id[1:]) - 1 for record_id in expected_ids]
        assert index_lists[0] == expected_indices


class TestSecureProtocolHiding:
    def test_no_plaintext_distance_ever_on_the_wire(self, security_table,
                                                    small_keypair):
        """In SkNN_m every payload is ciphertexts (no plaintext index lists)
        but for public metadata: the delivery id and SMIN's bit length.
        SMIN's DGK ciphertexts travel as ints: every one is a full-size
        residue below the DGK modulus, never a small plaintext."""
        cloud, client = deploy(security_table, small_keypair, seed=310)
        protocol = SkNNSecure(cloud, distance_bits=7)
        protocol.run(client.encrypt_query([2, 5]), 2)
        dgk = cloud.c1.dgk_key

        def contains_plain_int(payload) -> bool:
            if isinstance(payload, Ciphertext):
                return False
            if isinstance(payload, int):
                return True
            if isinstance(payload, (list, tuple)):
                return any(contains_plain_int(item) for item in payload)
            return False

        for message in cloud.channel.transcript:
            payload = message.payload
            if message.tag == "SkNN.masked_results":
                # The delivery message is [delivery_id, records]: the id is a
                # query-independent sequence number (routing metadata so C2
                # can file the share for the right query), not data.  The
                # record contents must still be ciphertexts only.
                delivery_id, payload = payload
                assert isinstance(delivery_id, int)
            if message.tag == "SMIN.batch_masked_differences":
                # [L, masked differences]: L is the comparison's public bit
                # length — l in the first iteration, l + 1 after it — which
                # C2 needs to return z's low bits; the values are
                # ciphertexts only.
                bit_length, payload = payload
                assert bit_length in (7, 8)
            if message.tag in ("SMIN.batch_difference_bits",
                               "SMIN.batch_comparisons"):
                values = [value for row in payload for value in row
                          if not isinstance(value, Ciphertext)]
                assert values and all(
                    dgk.valid(value) and value >> (dgk.key_size // 2)
                    for value in values)
                payload = [[value for value in row
                            if isinstance(value, Ciphertext)]
                           for row in payload]
            assert not contains_plain_int(payload)

    def test_c2_minimum_localisation_values_look_random(self, security_table,
                                                        small_keypair):
        """The randomized differences C2 decrypts are 0 or indistinguishable
        from random — in particular they never equal a true distance."""
        cloud, client = deploy(security_table, small_keypair, seed=311)
        protocol = SkNNSecure(cloud, distance_bits=7)
        query = [1, 1]
        true_distances = {
            security_table.squared_distance(record.record_id, query)
            for record in security_table
        }
        protocol.run(client.encrypt_query(query), 1)
        beta_messages = [
            message for message in cloud.channel.transcript
            if message.tag == "SkNNm.randomized_differences"
        ]
        assert beta_messages
        for message in beta_messages:
            # [beta, rows]: C2 decrypts beta only; the rows are masked
            # records it forwards without decrypting
            beta, rows = message.payload
            assert len(rows) == len(beta) == len(security_table)
            values = [small_keypair.private_key.decrypt_raw_residue(c)
                      for c in beta]
            nonzero = [value for value in values if value != 0]
            # Every non-zero value is a random multiple of a difference and
            # (with overwhelming probability) not a true distance.
            assert all(value not in true_distances for value in nonzero)
            # Exactly the minimum positions decrypt to zero.
            assert 1 <= (len(values) - len(nonzero)) <= len(values)

    def test_indicator_vector_is_encrypted_and_hides_position(self, security_table,
                                                              small_keypair):
        """C1 receives U as ciphertexts; without sk it cannot locate the 1."""
        cloud, client = deploy(security_table, small_keypair, seed=312)
        protocol = SkNNSecure(cloud, distance_bits=7)
        protocol.run(client.encrypt_query([6, 2]), 1)
        indicator_messages = [
            message for message in cloud.channel.transcript
            if message.tag == "SkNNm.indicator"
        ]
        assert indicator_messages
        # [U, the forwarded row]: all ciphertexts
        payload, row = indicator_messages[0].payload
        assert all(isinstance(item, Ciphertext) for item in payload + row)
        assert len(row) == security_table.dimensions
        decrypted = [small_keypair.private_key.decrypt(item) for item in payload]
        assert sorted(decrypted, reverse=True)[0] == 1
        assert sum(decrypted) == 1

    def test_transcripts_differ_across_identical_queries(self, security_table,
                                                         small_keypair):
        """Semantic security: rerunning the same query yields fresh ciphertexts."""
        cloud, client = deploy(security_table, small_keypair, seed=313)
        protocol = SkNNSecure(cloud, distance_bits=7)
        query = client.encrypt_query([3, 3])
        transcripts = []
        for _ in range(2):
            cloud.channel.transcript.clear()
            protocol.run(query, 1)
            transcripts.append([
                cipher.value
                for message in cloud.channel.transcript
                if message.tag == "SkNNm.randomized_differences"
                for cipher in ciphertexts_in(message.payload)])
        first_transcript, second_transcript = transcripts
        assert len(first_transcript) == len(second_transcript) \
            == len(security_table) * (1 + security_table.dimensions)
        assert first_transcript != second_transcript


def ciphertexts_in(payload) -> list[Ciphertext]:
    """Every ciphertext of a (nested) payload, in order."""
    if isinstance(payload, Ciphertext):
        return [payload]
    if isinstance(payload, (list, tuple)):
        return [cipher for item in payload for cipher in ciphertexts_in(item)]
    return []


class TestExtractionView:
    """Step 3(d) rides on the zero search: C1 sends every record masked,
    C2 forwards the chosen one re-randomized."""

    QUERY = [4, 1]

    def run(self, cloud, encrypted_query, k: int = 2):
        protocol = SkNNSecure(cloud, distance_bits=7)
        cloud.channel.transcript.clear()
        shares = protocol.run(encrypted_query, k)
        return shares, list(cloud.channel.transcript)

    def test_c2_sees_masked_rows_and_c1_a_fresh_one(self, security_table,
                                                    small_keypair):
        cloud, client = deploy(security_table, small_keypair, seed=330)
        shares, transcript = self.run(cloud, client.encrypt_query(self.QUERY))
        requests = [m.payload for m in transcript
                    if m.tag == "SkNNm.randomized_differences"]
        replies = [m.payload for m in transcript
                   if m.tag == "SkNNm.indicator"]
        assert len(requests) == len(replies) == 2
        plain = {value for record in security_table for value in record.values}
        private = small_keypair.private_key
        for (_, rows), (_, forwarded) in zip(requests, replies):
            sent = {cipher.value for row in rows for cipher in row}
            # the forwarded row is no ciphertext C1 sent ...
            assert not {cipher.value for cipher in forwarded} & sent
            # ... and under it, as under every row, a masked record
            masked = private.decrypt_residue_batch(forwarded)
            assert masked in [private.decrypt_residue_batch(row)
                              for row in rows]
            assert not set(masked) & plain
            assert not {value for row in rows
                        for value in private.decrypt_residue_batch(row)} \
                & plain
        assert_valid_knn_answer(security_table, self.QUERY, 2,
                                client.reconstruct(shares))

    def test_two_runs_of_one_query_share_no_ciphertext(self, security_table,
                                                       small_keypair):
        cloud, client = deploy(security_table, small_keypair, seed=331)
        encrypted_query = client.encrypt_query(self.QUERY)
        views = []
        for _ in range(2):
            _, transcript = self.run(cloud, encrypted_query)
            views.append([cipher.value for message in transcript
                          for cipher in ciphertexts_in(message.payload)])
        for view in views:
            assert 1 not in view
            assert len(set(view)) == len(view)
        assert not set(views[0]) & set(views[1])


class TestFusedScanMasking:
    """What crosses the wire in the SSED scan of SkNN_b and SkNN_m."""

    QUERY = [2, 5]

    def scan(self, cloud, client, monkeypatch):
        """Run one scan; return (masks C1 drew, request rows, reply sums).

        The table has 2 * PIPELINE_MIN_ITEMS records, so the scan crosses
        as two half-scans in flight: both request frames' rows and both
        reply frames' sums are returned, concatenated in record order, after
        checking that each reply answers its own request.
        """
        protocol = SkNNSecure(cloud, distance_bits=7)
        drawn: list[int] = []
        take_masks = protocol._ssed.take_masks

        def recording_take_masks(count, kind="zn", sbd_upper=None,
                                 bits=None):
            tuples = take_masks(count, kind, sbd_upper, bits)
            drawn.extend(r for r, _ in tuples)
            return tuples

        monkeypatch.setattr(protocol._ssed, "take_masks",
                            recording_take_masks)
        cloud.channel.transcript.clear()
        protocol._compute_encrypted_distances(
            client.encrypt_query(self.QUERY))
        transcript = cloud.channel.transcript
        assert [message.tag for message in transcript] == [
            "SSED.masked_differences", "SSED.masked_square_sums"] * 2
        requests, replies = transcript[0::2], transcript[1::2]
        for request, reply in zip(requests, replies):
            assert len(reply.payload) == len(request.payload) > 0
        return (drawn,
                [row for request in requests for row in request.payload],
                [total for reply in replies for total in reply.payload])

    def test_c2_decrypts_only_difference_plus_mask(self, security_table,
                                                   small_keypair,
                                                   monkeypatch):
        cloud, client = deploy(security_table, small_keypair, seed=320)
        drawn, rows, _ = self.scan(cloud, client, monkeypatch)
        n = small_keypair.public_key.n
        differences = [(value - q) % n
                       for record in security_table
                       for value, q in zip(record.values, self.QUERY)]
        seen_by_c2 = small_keypair.private_key.decrypt_residue_batch(
            [cipher for row in rows for cipher in row])
        assert len(drawn) == len(differences) == len(seen_by_c2)
        assert len(set(drawn)) == len(drawn)  # one fresh mask per value
        assert seen_by_c2 == [(d + r) % n for d, r in zip(differences, drawn)]
        # Never the bare difference — nor any other record's.
        assert not set(seen_by_c2) & set(differences)

    def test_c2_view_differs_across_identical_scans(self, security_table,
                                                    small_keypair,
                                                    monkeypatch):
        cloud, client = deploy(security_table, small_keypair, seed=321)
        views = []
        for _ in range(2):
            _, rows, _ = self.scan(cloud, client, monkeypatch)
            views.append(small_keypair.private_key.decrypt_residue_batch(
                [cipher for row in rows for cipher in row]))
        assert not set(views[0]) & set(views[1])

    def test_wire_carries_ciphertexts_only_one_per_record_back(
            self, security_table, small_keypair, monkeypatch):
        cloud, client = deploy(security_table, small_keypair, seed=322)
        _, rows, totals = self.scan(cloud, client, monkeypatch)
        assert len(rows) == len(security_table)
        assert all(isinstance(cipher, Ciphertext)
                   for row in rows for cipher in row)
        assert len(totals) == len(security_table)
        assert all(isinstance(cipher, Ciphertext) for cipher in totals)
        # The reply is a fresh encryption of a masked sum, not a distance.
        true_distances = {
            security_table.squared_distance(record.record_id, self.QUERY)
            for record in security_table}
        sums = small_keypair.private_key.decrypt_residue_batch(totals)
        assert not set(sums) & true_distances


class TestResultShareSecrecy:
    def test_individual_shares_are_masked(self, security_table, small_keypair):
        """Neither C1's masks nor C2's masked values alone reveal a record."""
        cloud, client = deploy(security_table, small_keypair, seed=320)
        protocol = SkNNBasic(cloud)
        query = [0, 0]
        shares = protocol.run(client.encrypt_query(query), 1)
        true_record = LinearScanKNN(security_table).query(query, 1)[0].record.values
        # The masked values C2 forwards are not the plaintext attributes.
        assert tuple(shares.masked_values_from_c2[0]) != true_record
        # The masks C1 sends Bob are not the plaintext attributes either.
        assert tuple(shares.masks_from_c1[0]) != true_record
        # Only the combination recovers the record.
        assert client.reconstruct(shares)[0] == true_record

    def test_modulus_travels_with_shares(self, security_table, small_keypair):
        cloud, client = deploy(security_table, small_keypair, seed=321)
        protocol = SkNNBasic(cloud)
        shares = protocol.run(client.encrypt_query([1, 1]), 1)
        assert shares.modulus == small_keypair.public_key.n
        assert len(shares.masks_from_c1) == 1
