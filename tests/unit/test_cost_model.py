"""Unit tests for the analytic cost model and the calibrated predictor."""

from __future__ import annotations

import pytest

from repro.analysis.calibration import Calibrator, PaillierTimings
from repro.analysis.cost_model import (
    OperationCounts,
    ProtocolCost,
    pool_targets,
    sbd_cost,
    sbd_counts,
    sbor_counts,
    sknn_basic_cost,
    sknn_basic_counts,
    sknn_secure_breakdown,
    sknn_secure_counts,
    sknn_secure_phases,
    sm_counts,
    smin_cost,
    sminn_cost,
    ssed_counts,
    ssed_scan_cost,
)
from repro.exceptions import ConfigurationError


class TestOperationCounts:
    def test_addition_and_scaling(self):
        counts = OperationCounts(1, 2, 3) + OperationCounts(4, 5, 6)
        assert counts == OperationCounts(5, 7, 9)
        assert 2 * OperationCounts(1, 2, 3) == OperationCounts(2, 4, 6)

    def test_total_and_dict(self):
        counts = OperationCounts(1, 2, 3)
        assert counts.total == 6
        assert counts.as_dict() == {
            "encryptions": 1, "decryptions": 2, "exponentiations": 3,
        }


class TestSubProtocolFormulas:
    def test_sm_counts(self):
        assert sm_counts() == OperationCounts(3, 2, 2)

    def test_ssed_scales_linearly_in_m(self):
        assert ssed_counts(6).total == 6 * ssed_counts(1).total

    def test_sbd_scales_linearly_in_l(self):
        assert sbd_counts(12).total == pytest.approx(2 * sbd_counts(6).total)

    def test_smin_dominated_by_linear_term(self):
        # Linear in l up to the constant term: equal increments per extra bit.
        per_bit = smin_cost(7).total.total - smin_cost(6).total.total
        assert smin_cost(12).total.total - smin_cost(6).total.total == pytest.approx(
            6 * per_bit)

    def test_smin_counts_per_bit(self):
        """2 encryptions, 1 decryption, 2 exponentiations per bit, plus 7
        encryptions, 2 decryptions and 2 exponentiations: no secure
        multiplication, no bit decomposition and one entry per bit."""
        for bit_length in (1, 6, 7):
            assert smin_cost(bit_length).total == OperationCounts(
                2 * bit_length + 7, bit_length + 2, 2 * bit_length + 2)
        assert smin_cost(6).total.total == 5 * 6 + 11

    def test_sminn_is_n_minus_one_smins(self):
        assert sminn_cost(10, 6).total.total == pytest.approx(9 * smin_cost(6).total.total)

    def test_sbor_is_sm_plus_one_exponentiation(self):
        assert sbor_counts().exponentiations == sm_counts().exponentiations + 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ssed_counts(0)
        with pytest.raises(ConfigurationError):
            sbd_counts(-1)
        with pytest.raises(ConfigurationError):
            smin_cost(0)
        with pytest.raises(ConfigurationError):
            sminn_cost(0, 4)


class TestQueryProtocolFormulas:
    def test_sknnb_linear_in_n(self):
        """Figure 2(a): SkNN_b cost grows linearly with n."""
        cost_2000 = sknn_basic_counts(2000, 6, 5).total
        cost_4000 = sknn_basic_counts(4000, 6, 5).total
        assert cost_4000 / cost_2000 == pytest.approx(2.0, rel=0.01)

    def test_sknnb_linear_in_m(self):
        """Figure 2(a): SkNN_b cost grows linearly with m."""
        cost_6 = sknn_basic_counts(2000, 6, 5).total
        cost_18 = sknn_basic_counts(2000, 18, 5).total
        assert cost_18 / cost_6 == pytest.approx(3.0, rel=0.05)

    def test_sknnb_nearly_independent_of_k(self):
        """Figure 2(c): SkNN_b cost barely changes with k."""
        cost_k5 = sknn_basic_counts(2000, 6, 5).total
        cost_k25 = sknn_basic_counts(2000, 6, 25).total
        assert cost_k25 / cost_k5 < 1.01

    def test_sknnm_roughly_linear_in_k(self):
        """Figure 2(d): SkNN_m cost grows (almost) linearly with k."""
        cost_k5 = sknn_secure_counts(2000, 6, 5, 6).total
        cost_k25 = sknn_secure_counts(2000, 6, 25, 6).total
        ratio = cost_k25 / cost_k5
        assert 4.0 < ratio < 5.5

    def test_sknnm_grows_with_l(self):
        """Figure 2(d): larger l costs more (roughly linearly)."""
        cost_l6 = sknn_secure_counts(2000, 6, 5, 6).total
        cost_l12 = sknn_secure_counts(2000, 6, 5, 12).total
        assert 1.4 < cost_l12 / cost_l6 < 2.2

    def test_sknnm_much_more_expensive_than_sknnb(self):
        """Figure 2(f): the printed SkNN_m is orders of magnitude costlier
        than the printed SkNN_b."""
        basic = sknn_basic_counts(2000, 6, 5).total
        secure = sknn_secure_counts(2000, 6, 5, 6, textbook=True).total
        assert secure / basic > 10

    def test_implemented_sknnm_is_about_seven_times_textbook_sknnb(self):
        """Without its secure multiplications and bit decompositions the
        implemented SkNN_m is about 6.8x the textbook SkNN_b at Figure
        2(f)'s k = 5."""
        basic = sknn_basic_counts(2000, 6, 5).total
        secure = sknn_secure_counts(2000, 6, 5, 6).total
        assert secure == 665871
        assert secure / basic == pytest.approx(6.79, abs=0.01)

    def test_textbook_sknnm_prices_the_printed_protocol(self):
        """SSED per record, the printed SMIN (17l + 2), extraction by n*m
        SMs and elimination by n*l SBORs after the first iteration."""
        breakdown = sknn_secure_breakdown(8, 3, 2, 6, textbook=True)
        assert breakdown["ssed"] == ssed_counts(3) * 8
        assert breakdown["sminn"].total == 7 * 2 * (17 * 6 + 2)
        assert breakdown["extraction"] == sm_counts() * (8 * 3 * 2)
        assert breakdown["elimination"] == sbor_counts() * (8 * 6)
        assert breakdown["total"].total > sknn_secure_counts(8, 3, 2, 6).total

    def test_breakdown_sums_to_total(self):
        breakdown = sknn_secure_breakdown(100, 6, 5, 6)
        total = breakdown.pop("total")
        summed = OperationCounts()
        for counts in breakdown.values():
            summed = summed + counts
        assert summed.total == pytest.approx(total.total)

    def test_elimination_is_free_and_later_selections_carry_the_flag(self):
        """Elimination adds each indicator into a flag (no counted operation,
        no round); iterations 2..k select over l + 1 bits."""
        breakdown = sknn_secure_breakdown(8, 3, 2, 6)
        assert breakdown["elimination"] == OperationCounts()
        assert breakdown["sminn"] == sminn_cost(8, 6).total + sminn_cost(8, 7).total
        # n fresh zeros and n indicator bits, 2n powers per iteration; n
        # flag scalings
        assert breakdown["localisation"] == OperationCounts(
            encryptions=16 + 16, decryptions=16, exponentiations=32 + 8)
        # extraction: n*m C1 masks and strips, m C2 zeros per iteration
        assert breakdown["extraction"] == OperationCounts(
            encryptions=2 * (24 + 3), exponentiations=2 * 24)
        # secure_dist_k512's shape
        assert breakdown["total"] == OperationCounts(404, 165, 325)
        assert breakdown["total"].total == 894

    def test_sminn_share_increases_with_k(self):
        """Section 5.2: the SMIN_n share of SkNN_m grows as k grows."""
        def share(k: int) -> float:
            breakdown = sknn_secure_breakdown(2000, 6, k, 6)
            return breakdown["sminn"].total / breakdown["total"].total

        assert share(25) > share(5)
        assert share(5) > 0.3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            sknn_basic_counts(0, 6, 5)
        with pytest.raises(ConfigurationError):
            sknn_secure_counts(10, 6, 5, 0)


class TestPerPartyEntries:
    def test_scan_counts(self):
        """m masks + 1 square-sum re-encryption, m dec and m exp per record,
        plus the hoisted negations."""
        assert ssed_scan_cost(10, 3).total == OperationCounts(
            encryptions=40, decryptions=30, exponentiations=33)

    def test_smin_per_party(self):
        """C1: the mask, L + 1 DGK re-randomizers and two selection masks,
        2L + 2 counted powers per pair (2L of them DGK's); C2: L + 1 DGK
        bits, E(t) and a zero, one decryption and L + 1 DGK tests.  E(z)
        out, then the candidates; the selection and E(t) back.  The bits,
        entries and top bit travel as DGK values, not Paillier
        ciphertexts."""
        assert smin_cost(6, pairs=3) == ProtocolCost(
            c1=OperationCounts(encryptions=30, exponentiations=42),
            c2=OperationCounts(encryptions=27, decryptions=24),
            messages=4, c1_ciphertexts=9, c2_ciphertexts=6,
            c1_dgk=OperationCounts(encryptions=21, exponentiations=36),
            c2_dgk=OperationCounts(encryptions=21, decryptions=21))
        assert smin_cost(6, pairs=4).messages == 8

    def test_sbd_odd_masks_are_c1s_only_random_term(self):
        assert sbd_cost(6, values=2, odd_masks=5) == ProtocolCost(
            c1=OperationCounts(encryptions=17, exponentiations=29),
            c2=OperationCounts(encryptions=12, decryptions=12),
            messages=12, c1_ciphertexts=12, c2_ciphertexts=12)
        assert sbd_cost(6, values=2).total == sbd_counts(6) * 2
        assert sbd_counts(6) == OperationCounts(15, 6, 15)

    def test_sminn_is_two_rounds_per_tournament_level(self):
        assert sminn_cost(8, 6).messages == 2 * (4 + 2 + 2)
        assert sminn_cost(1, 6) == ProtocolCost()

    def test_sknn_basic_per_party(self):
        n, m, k = 10, 3, 2
        assert sknn_basic_cost(n, m, k) == ProtocolCost(
            c1=OperationCounts(encryptions=n * m + k * m,
                               exponentiations=n * m + m),
            c2=OperationCounts(encryptions=n, decryptions=n * m + n + k * m),
            messages=4 + 2 + 1, c1_ciphertexts=n * m + n + k * m,
            c2_ciphertexts=n)

    def test_secure_dist_k512_shape(self):
        """secure_dist_k512's query: 41 peer messages, 136 Paillier
        ciphertexts C1 -> C2 and 58 back; C1 encrypts 241, C2 163, 105 of
        each under DGK (SMIN's bits and re-randomizers).  No SBD phase."""
        phases = sknn_secure_phases(8, 3, 2, 6)
        assert "sbd" not in phases
        total = phases["total"]
        assert (total.messages, total.c1_ciphertexts,
                total.c2_ciphertexts) == (41, 136, 58)
        assert (total.c1.encryptions, total.c2.encryptions) == (241, 163)
        assert (total.c1_dgk.encryptions, total.c2_dgk.encryptions) \
            == (105, 105)
        assert total.total.total == 894

    def test_packed_entries_at_the_e2e_shapes(self):
        """Packed scans at the e2e keys: basic_warm_k1024 (22 differences
        and 127 distances a plaintext) decrypts 4 + 1 + 6 values where the
        unpacked query decrypts 70, in 147 operations instead of 191;
        secure_dist_k512's scan (11 a plaintext) sends 116 ciphertexts
        C1 -> C2 instead of 136."""
        basic = sknn_basic_cost(16, 3, 2, ssed_slots=22, distance_slots=127)
        assert (basic.c2.decryptions, basic.c1_ciphertexts,
                basic.c2_ciphertexts, basic.total.total) == (11, 11, 16, 147)
        assert basic.c1.exponentiations == 3 + (24 - 2) * 2 + 48 + (16 - 1)
        assert sknn_basic_cost(16, 3, 2).total.total == 191
        assert pool_targets(16, 3, 2, queries=11, ssed_slots=22,
                            distance_slots=127) == (110, 176)
        secure = sknn_secure_phases(8, 3, 2, 6, ssed_slots=11)["total"]
        assert (secure.messages, secure.c1_ciphertexts,
                secure.c2_ciphertexts, secure.total.total) \
            == (41, 116, 58, 874)
        # one slot a plaintext is the unpacked round
        assert ssed_scan_cost(10, 3, slots=1) == ssed_scan_cost(10, 3)

    def test_pool_targets(self):
        # basic_warm_k1024: n=16, m=3, k=2, 11 queries
        assert pool_targets(16, 3, 2, queries=11) == (594, 176)
        # SkNN_m: its Paillier encryptions, no random term; the DGK ones
        # apart
        assert pool_targets(8, 3, 2, queries=1, bit_length=6) == (136, 58)
        assert pool_targets(8, 3, 2, queries=2, bit_length=6,
                            dgk=True) == (210, 210)
        assert pool_targets(16, 3, 2, queries=11, dgk=True) == (0, 0)
        # chunk workers encrypt the scan with C1's slices
        assert pool_targets(10, 3, 2, queries=2,
                            worker_chunks=[10]) == (92, 0)
        # ... each chunk task packing its own records: a chunk of five
        # halves into 3 + 2 records, 5 + 3 packs at two slots a pack, plus
        # 5 square sums; two chunks and the 6 delivery masks
        assert pool_targets(10, 3, 2, queries=1, ssed_slots=2,
                            worker_chunks=[5, 5]) == (2 * (5 + 3 + 5) + 6, 0)


class TestCalibrator:
    def test_timings_are_positive_and_cached(self):
        calibrator = Calibrator(samples=5)
        first = calibrator.timings_for(128)
        second = calibrator.timings_for(128)
        assert first is second
        assert first.encryption_seconds > 0
        assert first.decryption_seconds > 0
        assert first.exponentiation_seconds > 0

    def test_prediction_scales_with_counts(self):
        calibrator = Calibrator(samples=5)
        small = calibrator.predict_seconds(OperationCounts(10, 10, 10), 128)
        large = calibrator.predict_seconds(OperationCounts(100, 100, 100), 128)
        assert large == pytest.approx(10 * small, rel=1e-6)

    def test_larger_keys_are_slower(self):
        calibrator = Calibrator(samples=5)
        slow = calibrator.timings_for(256)
        fast = calibrator.timings_for(128)
        assert slow.encryption_seconds > fast.encryption_seconds

    def test_keypair_cached_per_size(self):
        calibrator = Calibrator(samples=5)
        assert calibrator.keypair_for(128) is calibrator.keypair_for(128)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ConfigurationError):
            Calibrator(samples=1)

    def test_timings_dataclass_prediction(self):
        timings = PaillierTimings(key_size=128, encryption_seconds=1.0,
                                  decryption_seconds=2.0,
                                  exponentiation_seconds=3.0,
                                  dgk_encryption_seconds=0.1,
                                  dgk_decryption_seconds=0.2,
                                  dgk_exponentiation_seconds=0.3)
        assert timings.predict_seconds(OperationCounts(1, 1, 1)) == 6.0
        assert timings.as_dict()["key_size"] == 128
        assert timings.as_dict()["dgk_decryption_seconds"] == 0.2

    def test_dgk_share_is_priced_at_dgk_costs(self):
        timings = PaillierTimings(key_size=128, encryption_seconds=1.0,
                                  decryption_seconds=2.0,
                                  exponentiation_seconds=3.0,
                                  dgk_encryption_seconds=0.1,
                                  dgk_decryption_seconds=0.2,
                                  dgk_exponentiation_seconds=0.3)
        c1, c2 = OperationCounts(1, 0, 2), OperationCounts(3, 4, 0)
        all_dgk = ProtocolCost(c1=c1, c2=c2, c1_dgk=c1, c2_dgk=c2)
        assert timings.predict_seconds(all_dgk) == pytest.approx(
            4 * 0.1 + 4 * 0.2 + 2 * 0.3)
        no_dgk = ProtocolCost(c1=c1, c2=c2)
        assert timings.predict_seconds(no_dgk) == pytest.approx(
            timings.predict_seconds(c1 + c2))
        # half of C1's powers are DGK ones: one Paillier, one DGK
        mixed = ProtocolCost(c1=c1, c2=c2,
                             c1_dgk=OperationCounts(exponentiations=1))
        assert timings.predict_seconds(mixed) == pytest.approx(
            timings.predict_seconds(c1 + c2) - 3.0 + 0.3)

    def test_measured_dgk_costs_split_sknn_secure_below_all_paillier(self):
        """Calibrated at 512 bits, SkNN_m at (8, 3, 2, 6) with SMIN's DGK
        share at the DGK key's costs is cheaper than all of it at
        Paillier's (each DGK column is 3-13x cheaper at this size)."""
        calibrator = Calibrator(samples=5)
        timings = calibrator.timings_for(512)
        assert timings.dgk_encryption_seconds > 0
        assert timings.dgk_decryption_seconds > 0
        assert timings.dgk_exponentiation_seconds > 0
        cost = sknn_secure_phases(8, 3, 2, 6)["total"]
        assert cost.c1_dgk.total + cost.c2_dgk.total > 0
        split = calibrator.predict_seconds(cost, 512)
        assert 0 < split < calibrator.predict_seconds(cost.total, 512)
