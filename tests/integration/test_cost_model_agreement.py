"""The cost model, call for call: one agreement harness.

:mod:`repro.analysis.cost_model` states each protocol's cost once: per call
shape, what C1 pays, what C2 pays, the peer messages and the ciphertexts
each party sends.  Every case here runs one call — SM, the SSED scan, SBD,
SMIN, SMIN_n, SkNN_b, SkNN_m — at shapes below and at or above
``PIPELINE_MIN_ITEMS``, on every bigint backend, with pools off and warm,
and asserts the measured call equal to its entry: both parties' counters
(a cost ledger's per-party rows), the DGK share of them (the DGK keys'
own counters), the channel's messages and each sender's Paillier
ciphertexts.  SBD is held to the entry at the run's recorded number of odd
masks.  With pools warm each party's Paillier engine and DGK engine serve
exactly that party's encryptions of their kind and miss none: the offline
work is the entry's ``encryptions``, split as ``pool_targets`` splits it.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.analysis.cost_model import (
    OperationCounts,
    ProtocolCost,
    sbd_cost,
    sknn_basic_cost,
    sknn_secure_phases,
    sm_cost,
    smin_cost,
    sminn_cost,
    ssed_scan_cost,
)
from repro.core.cloud import FederatedCloud
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_basic import SkNNBasic, packing_slots
from repro.core.sknn_secure import SkNNSecure
from repro.core.system import SkNNSystem
from repro.crypto.backend import available_backends, set_backend
from repro.crypto.paillier import (
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
    slots,
)
from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine
from repro.db.datasets import synthetic_uniform
from repro.network.party import TwoPartySetting
from repro.network.stats import ProtocolRunStats
from repro.protocols.sbd import SecureBitDecomposition
from repro.protocols.sm import SecureMultiplication
from repro.protocols.smin import SecureMinimum
from repro.protocols.sminn import SecureMinimumOfN
from repro.protocols.ssed import (SecureSquaredEuclideanDistance,
                                  difference_width)
from repro.telemetry.profiling import CostLedger
from tests.integration.helpers import record_sbd_masks

#: secure_dist_k512's query shape (K=512 there, 128 bits here)
SECURE_DIST_K512 = dict(n_records=8, dimensions=3, k=2, bit_length=6)


def two_party(keypair, seed: int) -> TwoPartySetting:
    return TwoPartySetting.create(keypair, rng=Random(seed))


def deployed(keypair, seed: int, n_records: int, dimensions: int,
             bit_length: int = 8):
    """A cloud hosting a fresh table, and Bob's encryption of a query."""
    table = synthetic_uniform(n_records=n_records, dimensions=dimensions,
                              distance_bits=bit_length, seed=seed)
    owner = DataOwner(table, keypair=keypair, rng=Random(seed + 1))
    cloud = FederatedCloud.deploy(keypair, rng=Random(seed + 2))
    cloud.c1.host_database(owner.encrypt_database())
    client = QueryClient(keypair.public_key, dimensions, rng=Random(seed + 3))
    return cloud, client.encrypt_query(list(table.records[0].values))


# Each case builds its inputs and returns (setting, call, entry, sbd_masks):
# the call to measure, its model entry as a function of the number of odd
# SBD masks, and how many masks of SBD's range the call draws (SBD's, and
# one per SMIN pair for its masked difference).

def sm_case(keypair, pairs):
    setting = two_party(keypair, 11)
    public = setting.public_key
    operands = [(public.encrypt(a), public.encrypt(7 - a))
                for a in range(pairs)]
    return (setting, lambda: SecureMultiplication(setting).run_batch(operands),
            lambda odd: sm_cost(pairs), 0)


def ssed_case(keypair, n_records, dimensions, attribute_bits=None):
    setting = two_party(keypair, 12)
    public = setting.public_key
    query = public.encrypt_vector(list(range(dimensions)))
    records = [public.encrypt_vector([i + j for j in range(dimensions)])
               for i in range(n_records)]
    per_pack = slots(public.key_size,
                     difference_width(public.key_size, attribute_bits))
    return (setting,
            lambda: SecureSquaredEuclideanDistance(setting).run_many(
                query, records, attribute_bits),
            lambda odd: ssed_scan_cost(n_records, dimensions, per_pack), 0)


def sbd_case(keypair, bit_length, values):
    setting = two_party(keypair, 13)
    encrypted = setting.public_key.encrypt_batch(
        [(5 * i + 3) % (1 << bit_length) for i in range(values)])
    return (setting,
            lambda: SecureBitDecomposition(setting, bit_length).run_batch(
                encrypted),
            lambda odd: sbd_cost(bit_length, values, odd), bit_length * values)


def smin_case(keypair, bit_length, pairs):
    setting = two_party(keypair, 15)
    public = setting.public_key
    top = 1 << bit_length
    operands = [(public.encrypt((7 * i + 2) % top),
                 public.encrypt((3 * i + 5) % top)) for i in range(pairs)]
    return (setting,
            lambda: SecureMinimum(setting).run_batch(operands, bit_length),
            lambda odd: smin_cost(bit_length, pairs), pairs)


def sminn_case(keypair, count, bit_length):
    setting = two_party(keypair, 16)
    values = setting.public_key.encrypt_batch(
        [(5 * i + 1) % (1 << bit_length) for i in range(count)])
    return (setting,
            lambda: SecureMinimumOfN(setting).run(values, bit_length),
            lambda odd: sminn_cost(count, bit_length), count - 1)


def sknn_basic_case(keypair, n_records, dimensions, k):
    cloud, query = deployed(keypair, 17, n_records, dimensions)
    slots = packing_slots(keypair.public_key.key_size,
                          cloud.c1.encrypted_table.schema)
    return (cloud.setting, lambda: SkNNBasic(cloud).run(query, k),
            lambda odd: sknn_basic_cost(n_records, dimensions, k, *slots), 0)


def sknn_secure_case(keypair, n_records, dimensions, k, bit_length):
    cloud, query = deployed(keypair, 18, n_records, dimensions, bit_length)
    protocol = SkNNSecure(cloud, distance_bits=bit_length)
    ssed_slots, _ = packing_slots(keypair.public_key.key_size,
                                  cloud.c1.encrypted_table.schema)
    return (cloud.setting, lambda: protocol.run(query, k),
            lambda odd: sknn_secure_phases(n_records, dimensions, k,
                                           bit_length, ssed_slots)["total"],
            (n_records - 1) * k)


CASES = {
    "SM": (sm_case, [dict(pairs=1), dict(pairs=5)]),
    "SSED": (ssed_case, [dict(n_records=1, dimensions=1),
                         dict(n_records=1, dimensions=3),
                         dict(n_records=1, dimensions=5),
                         dict(n_records=1, dimensions=6),
                         dict(n_records=4, dimensions=1),
                         dict(n_records=5, dimensions=3),
                         dict(n_records=1, dimensions=3, attribute_bits=4),
                         dict(n_records=5, dimensions=3, attribute_bits=4),
                         dict(n_records=9, dimensions=2, attribute_bits=6)]),
    "SBD": (sbd_case, [dict(bit_length=4, values=1),
                       dict(bit_length=6, values=1),
                       dict(bit_length=8, values=1),
                       dict(bit_length=6, values=3),
                       dict(bit_length=4, values=4)]),
    "SMIN": (smin_case, [dict(bit_length=4, pairs=1),
                         dict(bit_length=6, pairs=1),
                         dict(bit_length=5, pairs=1),
                         dict(bit_length=5, pairs=3),
                         dict(bit_length=4, pairs=5)]),
    "SMIN_n": (sminn_case, [dict(count=3, bit_length=4),
                            dict(count=9, bit_length=3)]),
    "SkNN_b": (sknn_basic_case, [dict(n_records=3, dimensions=2, k=2),
                                 dict(n_records=10, dimensions=3, k=2)]),
    "SkNN_m": (sknn_secure_case, [
        dict(n_records=3, dimensions=2, k=2, bit_length=4),
        dict(n_records=4, dimensions=2, k=2, bit_length=4),
        dict(n_records=6, dimensions=2, k=2, bit_length=7),
        SECURE_DIST_K512]),
}


def fresh_keypair(keypair) -> PaillierKeyPair:
    """Key objects of their own, built on the active backend."""
    public = PaillierPublicKey(keypair.public_key.n)
    return PaillierKeyPair(public, PaillierPrivateKey(
        public, keypair.private_key.p, keypair.private_key.q))


def dgk_counters(setting: TwoPartySetting):
    """Both parties' DGK key counters: the DGK share of their operations."""
    return (setting.evaluator.dgk_key.counter,
            setting.decryptor.dgk_private_key.counter)


def measure(setting: TwoPartySetting, call) -> ProtocolCost:
    """``call`` as a :class:`ProtocolCost`: both parties' counters under a
    cost ledger, the DGK share read off the DGK keys' own counters, the
    channel's frames and each sender's Paillier ciphertexts."""
    setting.reset_counters()
    before = [counter.snapshot() for counter in dgk_counters(setting)]
    ledger = CostLedger.for_setting(setting)
    with ledger.activate():
        call()
    stats = ProtocolRunStats()
    stats.add_cost_rows(ledger.finish())
    traffic = setting.channel.traffic
    c1_dgk, c2_dgk = (
        OperationCounts(*(counter.snapshot()[op] - start[op]
                          for op in ("encryptions", "decryptions",
                                     "exponentiations")))
        for counter, start in zip(dgk_counters(setting), before))
    return ProtocolCost(
        c1=OperationCounts(encryptions=stats.c1_encryptions,
                           exponentiations=stats.c1_exponentiations),
        c2=OperationCounts(stats.c2_encryptions, stats.c2_decryptions,
                           stats.c2_exponentiations),
        messages=setting.channel.total_traffic().messages,
        c1_ciphertexts=traffic["C1"].ciphertexts,
        c2_ciphertexts=traffic["C2"].ciphertexts,
        c1_dgk=c1_dgk, c2_dgk=c2_dgk)


@pytest.mark.parametrize("pools", ["off", "warm"])
@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("protocol, shape", [
    pytest.param(protocol, shape,
                 id=protocol + "-" + "-".join(map(str, shape.values())))
    for protocol, (_, shapes) in CASES.items() for shape in shapes])
def test_the_model_entry_is_the_call(protocol, shape, backend_name, pools,
                                     small_keypair, monkeypatch):
    masks = record_sbd_masks(monkeypatch)
    set_backend(backend_name)
    try:
        keypair = fresh_keypair(small_keypair)
        setting, call, entry, sbd_masks = CASES[protocol][0](keypair, **shape)
        engines = ()
        if pools == "warm":
            # sized at SBD's all-odd bound: each party's Paillier factors,
            # and the DGK ones in engines of their own
            bound = entry(sbd_masks)
            dgk_public = setting.evaluator.dgk_key
            dgk_private = setting.decryptor.dgk_private_key
            engines = tuple(
                PrecomputeEngine(key, rng=Random(seed), config=PrecomputeConfig(
                    obfuscators=int(count)))
                for key, count, seed in (
                    (keypair.public_key,
                     bound.c1.encryptions - bound.c1_dgk.encryptions, 21),
                    (keypair.private_key,
                     bound.c2.encryptions - bound.c2_dgk.encryptions, 22),
                    (dgk_public, bound.c1_dgk.encryptions, 23),
                    (dgk_private, bound.c2_dgk.encryptions, 24)))
            for engine in engines:
                engine.warm()
            setting.attach_engine(*engines[:3])
            setting.decryptor.dgk_engine = engines[3]
        measured = measure(setting, call)
    finally:
        set_backend(None)
    assert len(masks) == sbd_masks
    expected = entry(sum(r % 2 for r in masks))
    assert measured == expected
    for engine, encryptions in zip(engines, (
            expected.c1.encryptions - expected.c1_dgk.encryptions,
            expected.c2.encryptions - expected.c2_dgk.encryptions,
            expected.c1_dgk.encryptions, expected.c2_dgk.encryptions)):
        assert (engine.hits, engine.misses) == (encryptions, 0)
    if shape == SECURE_DIST_K512:
        # the workload's peer_messages_per_query and Paillier ciphertexts
        # per direction, which the daemons carry (test_distributed) — at
        # this key two masked differences share a plaintext (116 C1
        # ciphertexts at K=512's eleven) — and C1's and C2's DGK
        # re-randomizers and C2's zero tests
        assert (measured.messages, measured.c1_ciphertexts,
                measured.c2_ciphertexts) == (41, 124, 58)
        assert (measured.c1_dgk.encryptions, measured.c2_dgk.encryptions,
                measured.c2_dgk.decryptions) == (105, 105, 105)


@pytest.mark.parametrize("mode", ["basic", "parallel", "sharded", "secure"])
def test_setup_pools_strand_nothing(mode):
    """``setup(precompute=q)`` then exactly ``q`` queries: no engine misses,
    and every factor warmed was drawn."""
    queries, k = 2, 2
    table = synthetic_uniform(n_records=6, dimensions=2, distance_bits=6,
                              seed=31)
    with SkNNSystem.setup(table, key_size=128, mode=mode, k_default=k,
                          rng=Random(32), precompute=queries, workers=2,
                          parallel_backend="serial") as system:
        for index in range(queries):
            system.query(list(table.records[index].values))
        engines = (system.precompute_engine,
                   system.decryptor_precompute_engine)
    for engine in engines:
        assert engine.misses == 0
        assert engine.offline_encryptions == engine.hits
