"""The strip steps' multi-exponentiation changes no ciphertext and no count.

SSED (which the in-process chunk worker runs as well) and SM compute
``prod_j E(d_j)^(s_j)`` through ``PaillierPublicKey.weighted_sum_batch`` /
``BigintBackend.multi_powmod`` (one shared squaring chain) where they used
to run ``scalar_mul_batch`` + ``add_batch`` (one ``pow`` per term).  Each test runs the protocol twice on
twin deployments — equal keys, equal rng streams — once as shipped and once
with the product swapped back to that pre-change formula, and requires
raw-identical outputs and identical per-party ``OperationCounter`` deltas,
which in turn equal the pre-change totals (``ssed_scan_cost`` /
``sm_counts`` plus the homomorphic additions the cost model does not carry).
"""

from __future__ import annotations

from random import Random

import pytest

from repro.analysis.cost_model import sm_counts, ssed_scan_cost
from repro.crypto.paillier import (
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.network.party import TwoPartySetting
from repro.protocols.sm import SecureMultiplication
from repro.protocols.ssed import SecureSquaredEuclideanDistance


def twin_keypair(keypair: PaillierKeyPair) -> PaillierKeyPair:
    """Fresh key objects (own counters, own obfuscator table) for one key."""
    public = PaillierPublicKey(keypair.public_key.n)
    private = PaillierPrivateKey(public, keypair.private_key.p,
                                 keypair.private_key.q)
    return PaillierKeyPair(public, private)


def twin_settings(keypair: PaillierKeyPair, seed: int
                  ) -> tuple[TwoPartySetting, TwoPartySetting]:
    """Two deployments that draw the same randomness in the same order."""
    return (TwoPartySetting.create(twin_keypair(keypair), rng=Random(seed)),
            TwoPartySetting.create(twin_keypair(keypair), rng=Random(seed)))


def use_pre_change_strip(monkeypatch, public: PaillierPublicKey) -> None:
    """Swap ``weighted_sum_batch`` on this key for the formula it replaced:
    one independent exponentiation per term, then a row-wise sum."""
    def powers_then_adds(rows, scalar_rows):
        out = []
        for row, scalars in zip(rows, scalar_rows):
            powers = public.scalar_mul_batch(list(row), list(scalars))
            total = powers[:1]
            for power in powers[1:]:
                total = public.add_batch(total, [power])
            out.extend(total)
        return out
    monkeypatch.setattr(public, "weighted_sum_batch", powers_then_adds)


def counts(setting: TwoPartySetting) -> dict[str, int]:
    """C1+C2 public-key operations and C2's decryptions, since the reset."""
    snapshot = setting.public_key.counter.snapshot()
    snapshot["decryptions"] = setting.decryptor.private_key.counter.decryptions
    return snapshot


def raw(ciphertexts) -> list[int]:
    return [ciphertext.value for ciphertext in ciphertexts]


@pytest.mark.parametrize("records,dimensions", [(1, 1), (4, 1), (5, 3), (3, 4)])
def test_ssed_run_many_raw_identical_and_counts_unchanged(
        monkeypatch, small_keypair, records, dimensions):
    shipped, reference = twin_settings(small_keypair, seed=11)
    use_pre_change_strip(monkeypatch, reference.public_key)

    outputs = []
    for setting in (shipped, reference):
        public = setting.public_key
        query = public.encrypt_vector(list(range(dimensions)), rng=Random(12))
        table = [public.encrypt_vector([7 * i + j for j in range(dimensions)],
                                       rng=Random(13 + i))
                 for i in range(records)]
        setting.reset_counters()
        outputs.append(raw(SecureSquaredEuclideanDistance(setting)
                           .run_many(query, table)))

    assert outputs[0] == outputs[1]
    assert counts(shipped) == counts(reference)
    model = ssed_scan_cost(records, dimensions).total
    pairs = records * dimensions
    assert counts(shipped) == {
        "encryptions": model.encryptions,
        "decryptions": model.decryptions,
        "exponentiations": model.exponentiations,
        # differences + maskings + cross terms, and one constant per record
        "homomorphic_additions": 3 * pairs + records,
    }


OPERANDS = [(3, 4), (-7, 2), (0, 99), (250, 250), (-5, -6)]


def test_sm_run_batch_raw_identical_and_counts_unchanged(monkeypatch,
                                                         small_keypair):
    shipped, reference = twin_settings(small_keypair, seed=21)
    use_pre_change_strip(monkeypatch, reference.public_key)

    outputs = []
    for setting in (shipped, reference):
        public = setting.public_key
        pairs = [(public.encrypt(a, rng=Random(22)),
                  public.encrypt(b, rng=Random(23))) for a, b in OPERANDS]
        pairs.append((pairs[0][0], pairs[0][0]))      # one base, twice
        setting.reset_counters()
        outputs.append(raw(SecureMultiplication(setting).run_batch(pairs)))

    assert outputs[0] == outputs[1]
    assert counts(shipped) == counts(reference)
    model = sm_counts()
    items = len(OPERANDS) + 1
    assert counts(shipped) == {
        "encryptions": model.encryptions * items,
        "decryptions": model.decryptions * items,
        "exponentiations": model.exponentiations * items,
        "homomorphic_additions": 5 * items,
    }


def test_sm_run_raw_identical_and_counts_unchanged(monkeypatch, small_keypair):
    shipped, reference = twin_settings(small_keypair, seed=31)
    use_pre_change_strip(monkeypatch, reference.public_key)

    outputs = []
    for setting in (shipped, reference):
        public = setting.public_key
        protocol = SecureMultiplication(setting)
        pairs = [(public.encrypt(a, rng=Random(32)),
                  public.encrypt(b, rng=Random(33))) for a, b in OPERANDS]
        setting.reset_counters()
        outputs.append(raw(protocol.run(a, b) for a, b in pairs))

    assert outputs[0] == outputs[1]
    assert counts(shipped) == counts(reference)
    model = sm_counts()
    assert counts(shipped) == {
        "encryptions": model.encryptions * len(OPERANDS),
        "decryptions": model.decryptions * len(OPERANDS),
        "exponentiations": model.exponentiations * len(OPERANDS),
        "homomorphic_additions": 5 * len(OPERANDS),
    }


def pin_randomness(monkeypatch, protocol: SecureMultiplication) -> None:
    """Fix the mask draw and C2's nonce, whichever entry point runs."""
    public = protocol.pk
    values = [Random(43).randrange(public.n) for _ in range(2)]
    masks = iter(zip(values, public.encrypt_batch(
        values, r_values=[1234567, 7654321])))
    monkeypatch.setattr(protocol, "take_masks",
                        lambda count: [next(masks) for _ in range(count)])
    monkeypatch.setattr(protocol.p2, "encrypt",
                        lambda value: public.encrypt(value, r_value=424243))
    monkeypatch.setattr(protocol.p2, "encrypt_batch",
                        lambda values: public.encrypt_batch(
                            values, r_values=[424243] * len(values)))


def test_sm_run_equals_one_pair_batch_under_the_same_draw(monkeypatch,
                                                          small_keypair):
    """``run(a, b)`` and ``run_batch([(a, b)])`` differ only in message tags:
    with the mask draw and C2's nonce pinned, the results are one integer."""
    results = []
    for setting, batched in zip(twin_settings(small_keypair, seed=41),
                                (False, True)):
        public = setting.public_key
        protocol = SecureMultiplication(setting)
        pin_randomness(monkeypatch, protocol)
        enc_a = public.encrypt(-19, rng=Random(44))
        enc_b = public.encrypt(23, rng=Random(45))
        results.append(protocol.run_batch([(enc_a, enc_b)])[0] if batched
                       else protocol.run(enc_a, enc_b))

    assert results[0].value == results[1].value
    assert setting.decryptor.decrypt_signed(results[1]) == -19 * 23
