"""Unit tests for the SM and SSED sub-protocols (Algorithms 1 and 2)."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine
from repro.exceptions import ProtocolError
from repro.network.party import TwoPartySetting
from repro.protocols.sm import SecureMultiplication
from repro.protocols.ssed import SecureSquaredEuclideanDistance


class TestSecureMultiplication:
    def test_paper_example_2(self, setting, private_key):
        """Example 2 of the paper: a=59, b=58 must give E(3422)."""
        protocol = SecureMultiplication(setting)
        result = protocol.run(setting.public_key.encrypt(59),
                              setting.public_key.encrypt(58))
        assert private_key.decrypt_raw_residue(result) == 59 * 58

    def test_random_pairs(self, setting, private_key, rng):
        protocol = SecureMultiplication(setting)
        for _ in range(15):
            a = rng.randrange(0, 2**20)
            b = rng.randrange(0, 2**20)
            result = protocol.run(setting.public_key.encrypt(a),
                                  setting.public_key.encrypt(b))
            assert private_key.decrypt_raw_residue(result) == a * b

    def test_multiplication_by_zero(self, setting, private_key):
        protocol = SecureMultiplication(setting)
        result = protocol.run(setting.public_key.encrypt(0),
                              setting.public_key.encrypt(12345))
        assert private_key.decrypt_raw_residue(result) == 0

    def test_multiplication_by_one(self, setting, private_key):
        protocol = SecureMultiplication(setting)
        result = protocol.run(setting.public_key.encrypt(1),
                              setting.public_key.encrypt(999))
        assert private_key.decrypt_raw_residue(result) == 999

    def test_bits_multiply_like_and(self, setting, private_key):
        protocol = SecureMultiplication(setting)
        for a in (0, 1):
            for b in (0, 1):
                result = protocol.run(setting.public_key.encrypt(a),
                                      setting.public_key.encrypt(b))
                assert private_key.decrypt_raw_residue(result) == (a & b)

    def test_result_is_fresh_ciphertext(self, setting):
        """The output must not equal either input ciphertext (re-randomized)."""
        protocol = SecureMultiplication(setting)
        enc_a = setting.public_key.encrypt(7)
        enc_b = setting.public_key.encrypt(1)
        result = protocol.run(enc_a, enc_b)
        assert result.value != enc_a.value
        assert result.value != enc_b.value

    def test_p2_only_sees_masked_values(self, setting, private_key):
        """Everything C1 sends during SM decrypts to a masked (random) value.

        With a = b = 0 the masked operands decrypt exactly to the masks; the
        test asserts they are not the trivial value 0, i.e. masking happened.
        """
        protocol = SecureMultiplication(setting)
        protocol.run(setting.public_key.encrypt(0), setting.public_key.encrypt(0))
        sent_by_c1 = list(setting.channel.transcript_payloads("C1"))
        assert sent_by_c1, "C1 must have sent the masked operands"
        # One pair travels as the one-pair batch: [[E(a+r_a)], [E(b+r_b)]].
        [masked_a], [masked_b] = sent_by_c1[0]
        values = [private_key.decrypt_raw_residue(c)
                  for c in (masked_a, masked_b)]
        assert all(value != 0 for value in values)

    def test_square_batch_squares_with_one_mask_per_element(self, setting,
                                                            private_key):
        """SM's squaring primitive (no longer exercised by the scan): exact
        squares mod N, negative operands included, at 2/1/1 ops per element."""
        protocol = SecureMultiplication(setting)
        pk = setting.public_key
        values = [0, 7, -12, 2**20]
        ciphers = [pk.encrypt(value) for value in values]
        setting.reset_counters()
        squares = protocol.run_square_batch(ciphers)
        assert pk.counter.encryptions == 2 * len(values)
        assert private_key.counter.decryptions == len(values)
        assert pk.counter.exponentiations == len(values)
        assert private_key.decrypt_residue_batch(squares) == [
            value * value for value in values]
        assert protocol.run_square_batch([]) == []


class TestSecureSquaredEuclideanDistance:
    def test_paper_example_3(self, setting, private_key):
        """Example 3: records t1 and t2 of Table 1 have squared distance 813."""
        protocol = SecureSquaredEuclideanDistance(setting)
        x = [63, 1, 1, 145, 233, 1, 3, 0, 6, 0]
        y = [56, 1, 3, 130, 256, 1, 2, 1, 6, 2]
        result = protocol.run(setting.public_key.encrypt_vector(x),
                              setting.public_key.encrypt_vector(y))
        assert private_key.decrypt_raw_residue(result) == 813

    def test_distance_to_self_is_zero(self, setting, private_key):
        protocol = SecureSquaredEuclideanDistance(setting)
        x = [5, 10, 15]
        enc_x = setting.public_key.encrypt_vector(x)
        enc_x_again = setting.public_key.encrypt_vector(x)
        assert private_key.decrypt_raw_residue(protocol.run(enc_x, enc_x_again)) == 0

    def test_symmetry(self, setting, private_key, rng):
        protocol = SecureSquaredEuclideanDistance(setting)
        x = [rng.randrange(100) for _ in range(4)]
        y = [rng.randrange(100) for _ in range(4)]
        d_xy = private_key.decrypt_raw_residue(
            protocol.run(setting.public_key.encrypt_vector(x),
                         setting.public_key.encrypt_vector(y)))
        d_yx = private_key.decrypt_raw_residue(
            protocol.run(setting.public_key.encrypt_vector(y),
                         setting.public_key.encrypt_vector(x)))
        assert d_xy == d_yx == sum((a - b) ** 2 for a, b in zip(x, y))

    def test_single_dimension(self, setting, private_key):
        protocol = SecureSquaredEuclideanDistance(setting)
        result = protocol.run(setting.public_key.encrypt_vector([10]),
                              setting.public_key.encrypt_vector([3]))
        assert private_key.decrypt_raw_residue(result) == 49

    def test_rejects_dimension_mismatch(self, setting):
        protocol = SecureSquaredEuclideanDistance(setting)
        with pytest.raises(ProtocolError,
                           match="SSED: dimension mismatch: 2 vs 1"):
            protocol.run(setting.public_key.encrypt_vector([1, 2]),
                         setting.public_key.encrypt_vector([1]))

    def test_rejects_empty_vectors(self, setting):
        protocol = SecureSquaredEuclideanDistance(setting)
        with pytest.raises(ProtocolError,
                           match="SSED: vectors must have at least one"):
            protocol.run([], [])

class TestFusedScanRound:
    """The one-round scan: hostile-input edges and conformance."""

    TAG = "SSED.masked_differences"

    def test_c1_rejects_a_reply_of_the_wrong_length(self, setting):
        class ShortReply(SecureSquaredEuclideanDistance):
            def _p2_sum_masked_squares(self):
                rows = self.p2.receive(expected_tag=TestFusedScanRound.TAG)
                self.p2.send(self.p2.encrypt_batch([0] * (len(rows) - 1)),
                             tag="SSED.masked_square_sums")

        pk = setting.public_key
        with pytest.raises(ProtocolError,
                           match="SSED: malformed masked-square-sum reply"):
            ShortReply(setting).run_many(
                pk.encrypt_vector([1, 2]),
                [pk.encrypt_vector([3, 4]), pk.encrypt_vector([5, 6])])

    def test_run_many_of_nothing_sends_nothing(self, setting):
        protocol = SecureSquaredEuclideanDistance(setting)
        assert protocol.run_many(setting.public_key.encrypt_vector([1]),
                                 []) == []
        assert setting.channel.total_traffic().messages == 0

    #: the attribute domain of the property below; 0 and TOP are forced in
    TOP = (1 << 10) - 1

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_plaintext_and_per_attribute_sm(self, small_keypair,
                                                    data):
        """``decrypt(run_many(x, Y))`` equals the plaintext SSED and the
        paper's per-attribute SM composition — boundary attributes, m=1,
        n=1 and duplicate records included, with and without an engine."""
        attribute = st.one_of(st.sampled_from([0, self.TOP]),
                              st.integers(min_value=0, max_value=self.TOP))
        m = data.draw(st.integers(min_value=1, max_value=4), label="m")
        vector = st.lists(attribute, min_size=m, max_size=m)
        x = data.draw(vector, label="x")
        records = data.draw(st.lists(vector, min_size=1, max_size=4),
                            label="Y")
        if data.draw(st.booleans(), label="duplicate"):
            records = records + [records[0]]
        with_engine = data.draw(st.booleans(), label="engine")

        setting = TwoPartySetting.create(small_keypair, rng=Random(5))
        pk, sk = small_keypair.public_key, small_keypair.private_key
        if with_engine:
            # Pools smaller than the scan, so takes cross the warm/dry edge.
            engines = [PrecomputeEngine(
                key, rng=Random(seed),
                config=PrecomputeConfig(obfuscators=7))
                for seed, key in ((6, pk), (7, sk))]
            for engine in engines:
                engine.warm()
            setting.attach_engine(*engines)
        try:
            enc_x = pk.encrypt_vector(x)
            enc_records = [pk.encrypt_vector(y) for y in records]
            ssed = SecureSquaredEuclideanDistance(setting)
            fused = sk.decrypt_residue_batch(ssed.run_many(enc_x, enc_records))
            sm = SecureMultiplication(setting)
            composed = []
            for enc_y in enc_records:
                total = None
                for enc_xj, enc_yj in zip(enc_x, enc_y):
                    diff = enc_xj - enc_yj
                    square = sm.run(diff, diff)
                    total = square if total is None else total + square
                composed.append(sk.decrypt_raw_residue(total))
        finally:
            setting.attach_engine(None)
        expected = [sum((a - b) ** 2 for a, b in zip(x, y)) for y in records]
        assert fused == expected
        assert composed == expected
