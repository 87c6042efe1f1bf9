"""Crypto-kernel micro-benchmark: per-call scalar vs. vectorized batch paths.

Every protocol of the paper bottoms out in three Paillier primitives —
encryption, decryption and ciphertext exponentiation (Section 4.4) — so this
bench measures exactly those, comparing

* the **scalar path**: one Python call per operation, textbook ``r**N``
  obfuscators (``PaillierPublicKey.encrypt``, the data owner's and Bob's
  path), against
* the **batch path**: ``encrypt_batch`` / ``decrypt_batch`` /
  ``scalar_mul_batch``, with fixed-base windowed obfuscator generation,

on identical workloads (same plaintexts, same scalar mix).  The scalar-mul
workload mirrors the protocols' real mix — one homomorphic negation plus two
uniform-scalar exponentiations per SSED attribute (the SM unmask pair); both
paths negate by the modular inverse, so that class is expected to tie.

Those margins are the pure-Python backend's own algorithms (the comb, the
shared-squaring multi-exponentiation, the inverse-priced negation), so the
tests that gate them pin the python backend; on the libcrypto backend a
native power costs less than the comb's multiplications and the paths tie.

A second test is the native-vs-python direction gate: the unit operations
(``powmod``, ``multi_powmod`` for m = 2/3/4, and for m = 3 with SSED's short
strip exponents, ``invert``, one batched encryption, one CRT decryption,
one Horner shift ``E**(2**w)`` of a packed SSED scan)
timed under every available backend, one
``paillier_kernel`` history row per backend with the python/openssl ratio
per operation, and the libcrypto backend must win the powers and the
combined batch workload — and its two-base ``multi_powmod`` (one
``BN_mod_exp2_mont``) must beat two ``powmod`` calls, and from K=512 its
fixed-base power (the same two-base call on the exponent's halves) must beat
one ``powmod`` of the same exponent, and its short three-base strip must
cost under half of the full-width one (three quarters below K=512), and a
packing shift under half of a decryption.

A third test gates the strip-step kernel: rows of 4 ciphertexts raised to
uniform ``Z_N`` scalars and multiplied together, as one shared-squaring
multi-exponentiation per row (``weighted_sum_batch``) against
``scalar_mul_batch`` + row-wise ``add_batch`` on the python backend; on the
libcrypto backend ``weighted_sum_batch`` takes its bases two at a time
through ``BN_mod_exp2_mont``, recorded against the python backend's
shared-squaring loop, which it must beat.

A fourth test gates the price of a negation: the operator ``-c`` must be the
modular inverse, several times cheaper than the ``c**(N-1)`` it replaces
(python backend; against a native power the inverse wins only 1.4x at K=512
and loses at K=256, recorded by the second test), and ``neg_batch`` of 32 —
one inversion for all of them — must beat 32 operator negations.

A fifth test compares an end-to-end SkNN_b query through the batched scan
against the seed's per-record serial scan on the same table and key.

Key size defaults to the paper's K=512; CI smoke runs set
``REPRO_BENCH_KERNEL_BITS=256`` (the vectorized path must still win there,
just by a smaller margin).  Results go to ``benchmarks/results/`` as both a
txt table and machine-readable ``BENCH_*.json``.
"""

from __future__ import annotations

import os
import time
from random import Random

import pytest

from benchmarks.conftest import HISTORY_DIR, write_bench_json, write_result
from repro.analysis.reporting import format_table
from repro.bench import BenchHistory, provenance_block
from repro.core.cloud import FederatedCloud
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_basic import SkNNBasic
from repro.crypto.backend import available_backends, get_backend, set_backend
from repro.crypto.paillier import (
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from repro.db.datasets import synthetic_uniform
from repro.network.party import TwoPartySetting
from repro.protocols.base import STATISTICAL_SECURITY, TwoPartyProtocol
from repro.protocols.ssed import (SecureSquaredEuclideanDistance,
                                  difference_width)

KERNEL_KEY_BITS = int(os.environ.get("REPRO_BENCH_KERNEL_BITS", "512"))
#: operations per primitive class (encrypt / decrypt / scalar-mul triples)
KERNEL_OPS = int(os.environ.get("REPRO_BENCH_KERNEL_OPS", "96"))
#: speedup the batch path must reach on the combined workload.  Only the
#: encrypt class separates the paths (comb vs textbook ``r**N``, 6-8x at
#: K=512); decrypt and scalar-mul tie, so the combined ratio is ~1.7x at
#: paper scale and less below it.
MIN_SPEEDUP = 1.3 if KERNEL_KEY_BITS >= 512 else 1.05
#: below paper scale the per-path totals are tens of milliseconds, so take
#: the best of several repeats to keep the CI gate stable on noisy runners.
MEASURE_REPEATS = 1 if KERNEL_KEY_BITS >= 512 else 3

#: speedup one multi-exponentiation per row of 4 full-width scalars must
#: reach over scalar_mul_batch + adds (python backend; ~1.9x at K=256, more
#: at paper scale where the shared squarings dominate).
MIN_ROWS_SPEEDUP = 1.3

#: speedup of a negation by the modular inverse over ``powmod(c, N-1,
#: N**2)`` (python backend; ~7x at K=256 through the operator, more at
#: paper scale).
MIN_NEGATION_SPEEDUP = 5.0

#: speedup of ``neg_batch`` over as many operator negations at 32 per batch
#: (one inversion and ~3 multiplications per element against one inversion
#: each; ~6x at K=512 on the development box, halved).
NEGATION_BATCH = 32
MIN_BATCH_NEGATION_SPEEDUP = 3.0

#: speedup of one native two-base ``multi_powmod`` over two native ``powmod``
#: calls: 1.4-1.8x at K=256, K=512 and K=1024 alike on the development box
#: (the unit-cost loop's slicing included); the smallest gain over parity
#: halved.
MIN_TWO_BASE_SPEEDUP = 1.2

#: speedup of the native fixed-base power (``BN_mod_exp2_mont`` on the two
#: halves of the exponent) over one ``powmod`` of the same exponent: 1.4x
#: at K=512 on the development box, the gain over parity halved; at K=256
#: it is 1.0-1.15x, so the gate holds from K=512 only.
MIN_FIXED_BASE_SPEEDUP = 1.2 if KERNEL_KEY_BITS >= 512 else None

#: bases per ``multi_powmod`` call in the per-backend unit-cost table
MULTI_POW_WIDTHS = (2, 3, 4)

#: bits of SSED's strip exponents ``2s`` over the default schema's 31-bit
#: attributes: ``s`` masks ``a + 1 = 32``-bit differences at ``sigma``, one
#: more for the doubling — the widest strip of the repo's workloads
SHORT_EXPONENT_BITS = 31 + 1 + STATISTICAL_SECURITY + 1
#: a three-base strip with those exponents must cost under this share of one
#: with full-width exponents (openssl: the squaring chain is 73 bits instead
#: of K).  Measured on the development box: 0.10 at K=1024, 0.24 at K=512,
#: and 0.49 at K=256, where each call's fixed Montgomery set-up is half the
#: cost — so the smoke's K=256 gate is three quarters.
MAX_SHORT_STRIP_SHARE = 0.5 if KERNEL_KEY_BITS >= 512 else 0.75

#: SSED's slot width on the end-to-end workloads' 4-bit attributes: one
#: Horner shift of a packed scan is an ``E**(2**w)`` at this ``w`` (46 bits)
PACK_SLOT_BITS = difference_width(KERNEL_KEY_BITS, 4)
#: a shift must cost under this share of one CRT decryption (what packing
#: saves per folded value).  Measured on the development box (openssl,
#: loaded): 0.41 at K=256, 0.42 at K=512, 0.16 at K=1024.
MAX_PACK_SHIFT_SHARE = 0.5

E2E_N = 24
E2E_M = 3


@pytest.fixture(scope="module")
def kernel_primes():
    """The one modulus every kernel measurement runs on."""
    private_key = generate_keypair(KERNEL_KEY_BITS, Random(4242)).private_key
    return private_key.p, private_key.q


@pytest.fixture
def kernel_keypair(kernel_primes):
    """Fresh key objects per test: a key keeps the fixed-base exponentiator
    of the backend that was active when it first encrypted a batch."""
    return _keypair(*kernel_primes)


def _keypair(p: int, q: int) -> PaillierKeyPair:
    public_key = PaillierPublicKey(p * q)
    return PaillierKeyPair(public_key, PaillierPrivateKey(public_key, p, q))


def _measure(fn, repeats: int = 1) -> float:
    """Best-of-``repeats`` wall-clock seconds of one callable."""
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _kernel_workload(public_key, rng: Random):
    """Plaintexts, ciphertexts and the protocol-mix scalar list."""
    n = public_key.n
    values = [rng.randrange(1 << 16) for _ in range(KERNEL_OPS)]
    ciphertexts = [public_key.encrypt(v, rng=rng) for v in values]
    # Protocol mix: one negation + two uniform scalars per SSED attribute.
    scalars = []
    for index in range(KERNEL_OPS):
        scalars.append(-1 if index % 3 == 0 else rng.randrange(1, n))
    return values, ciphertexts, scalars


def _run_kernel(public_key, private_key, rng: Random) -> dict[str, float]:
    """Time the three primitive classes through both paths."""
    values, ciphertexts, scalars = _kernel_workload(public_key, rng)
    repeats = MEASURE_REPEATS

    # Warm the fixed-base table outside the throughput measurement (one-time
    # per-key cost, reported separately below).
    table_build = _measure(
        lambda: public_key.encrypt_batch(values[:1], rng=rng))
    scalar_encrypt = _measure(
        lambda: [public_key.encrypt(v, rng=rng) for v in values], repeats)
    batch_encrypt = _measure(
        lambda: public_key.encrypt_batch(values, rng=rng), repeats)

    scalar_decrypt = _measure(
        lambda: [private_key.decrypt(c) for c in ciphertexts], repeats)
    batch_decrypt = _measure(
        lambda: private_key.decrypt_batch(ciphertexts), repeats)

    scalar_mul = _measure(
        lambda: [c * s for c, s in zip(ciphertexts, scalars)], repeats)
    batch_mul = _measure(
        lambda: public_key.scalar_mul_batch(ciphertexts, scalars), repeats)

    scalar_total = scalar_encrypt + scalar_decrypt + scalar_mul
    batch_total = batch_encrypt + batch_decrypt + batch_mul
    return {
        "scalar_encrypt_s": scalar_encrypt,
        "batch_encrypt_s": batch_encrypt,
        "window_table_build_s": table_build,
        "scalar_decrypt_s": scalar_decrypt,
        "batch_decrypt_s": batch_decrypt,
        "scalar_mul_s": scalar_mul,
        "batch_mul_s": batch_mul,
        "scalar_total_s": scalar_total,
        "batch_total_s": batch_total,
        "speedup": scalar_total / batch_total,
    }


def test_kernel_scalar_vs_batch(benchmark, python_backend, kernel_keypair,
                                results_dir):
    """The batched path must beat the per-call path on the combined workload."""
    public_key, private_key = (kernel_keypair.public_key,
                               kernel_keypair.private_key)
    public_key.counter.reset()
    private_key.counter.reset()

    timings = benchmark.pedantic(
        lambda: _run_kernel(public_key, private_key, Random(77)),
        rounds=1, iterations=1, warmup_rounds=0)

    counters = {
        "encryptions": public_key.counter.encryptions,
        "decryptions": private_key.counter.decryptions,
        "exponentiations": public_key.counter.exponentiations,
        "homomorphic_additions": public_key.counter.homomorphic_additions,
    }
    rows = [{
        "op": op,
        "scalar (ms)": timings[f"scalar_{key}_s"] * 1000,
        "batch (ms)": timings[f"batch_{key}_s"] * 1000,
        "speedup": timings[f"scalar_{key}_s"] / timings[f"batch_{key}_s"],
    } for op, key in [("encrypt", "encrypt"), ("decrypt", "decrypt"),
                      ("scalar-mul", "mul")]]
    rows.append({
        "op": "combined",
        "scalar (ms)": timings["scalar_total_s"] * 1000,
        "batch (ms)": timings["batch_total_s"] * 1000,
        "speedup": timings["speedup"],
    })
    text = (f"crypto kernel: scalar vs batch (K={KERNEL_KEY_BITS}, "
            f"{KERNEL_OPS} ops/class, backend={get_backend().name})\n"
            + format_table(rows)
            + f"window table build (one-time): "
              f"{timings['window_table_build_s'] * 1000:.1f} ms\n")
    write_result(results_dir, f"crypto_kernel_K{KERNEL_KEY_BITS}.txt", text)
    write_bench_json(results_dir, f"crypto_kernel_K{KERNEL_KEY_BITS}", {
        "kind": "measured",
        "params": {"key_size": KERNEL_KEY_BITS, "ops_per_class": KERNEL_OPS},
        "timings": timings,
        "op_counters": counters,
    })
    benchmark.extra_info.update({
        "subsystem": "crypto-kernel", "key_size": KERNEL_KEY_BITS,
        "backend": get_backend().name, "speedup": timings["speedup"],
    })

    assert timings["speedup"] >= MIN_SPEEDUP, (
        f"vectorized kernel ({timings['batch_total_s']:.3f}s) must be at "
        f">= {MIN_SPEEDUP}x faster than the scalar path "
        f"({timings['scalar_total_s']:.3f}s); got {timings['speedup']:.2f}x")


def _unit_costs(keypair: PaillierKeyPair, rng: Random) -> dict[str, float]:
    """Microseconds per unit operation on the active backend."""
    public_key, private_key = keypair.public_key, keypair.private_key
    backend = get_backend()
    nsquare = public_key.nsquare
    values = [rng.randrange(1 << 16) for _ in range(KERNEL_OPS)]
    # also asks the backend for the key's fixed-base exponentiator, a
    # one-time cost the per-encryption figure leaves out
    ciphertexts = public_key.encrypt_batch(values, rng=rng)
    raw = [cipher.value for cipher in ciphertexts]
    scalars = [rng.randrange(1, public_key.n) for _ in range(KERNEL_OPS)]
    repeats = max(MEASURE_REPEATS, 3)

    def per_op(fn, ops: int = KERNEL_OPS) -> float:
        return _measure(fn, repeats) / ops * 1e6

    fixed = backend.fixed_base(raw[0], nsquare, public_key.n.bit_length())
    costs = {
        "powmod_us": per_op(lambda: [backend.powmod(c, s, nsquare)
                                     for c, s in zip(raw, scalars)]),
        "fixed_base_pow_us": per_op(lambda: [fixed.pow(s) for s in scalars]),
        "invert_us": per_op(lambda: [backend.invert(c, nsquare)
                                     for c in raw]),
        "encrypt_us": per_op(
            lambda: public_key.encrypt_batch(values, rng=rng)),
        "decrypt_us": per_op(lambda: private_key.decrypt_batch(ciphertexts)),
    }
    for width in MULTI_POW_WIDTHS:
        starts = range(0, KERNEL_OPS - KERNEL_OPS % width, width)
        costs[f"multi_powmod_m{width}_us"] = per_op(
            lambda: [backend.multi_powmod(raw[start:start + width],
                                          scalars[start:start + width],
                                          nsquare) for start in starts],
            len(starts))
    shift = 1 << PACK_SLOT_BITS
    costs["pack_shift_us"] = per_op(
        lambda: [backend.powmod(c, shift, nsquare) for c in raw])
    short = [rng.randrange(1 << SHORT_EXPONENT_BITS) for _ in range(KERNEL_OPS)]
    starts = range(0, KERNEL_OPS - KERNEL_OPS % 3, 3)
    costs["multi_powmod_m3_short_us"] = per_op(
        lambda: [backend.multi_powmod(raw[start:start + 3],
                                      short[start:start + 3], nsquare)
                 for start in starts],
        len(starts))
    return costs


@pytest.mark.skipif("openssl" not in available_backends(),
                    reason="libcrypto not loadable on this machine")
def test_kernel_native_backend(kernel_primes, results_dir):
    """libcrypto must beat pure Python on the powers and the batch workload.

    One ``paillier_kernel`` history row per backend carries the unit costs;
    the openssl row adds the python/openssl ratio per operation.
    """
    costs, batch_total_s, provenance = {}, {}, {}
    try:
        for name in ("python", "openssl"):
            set_backend(name)
            costs[name] = _unit_costs(_keypair(*kernel_primes), Random(78))
            keypair = _keypair(*kernel_primes)
            batch_total_s[name] = _run_kernel(
                keypair.public_key, keypair.private_key,
                Random(78))["batch_total_s"]
            provenance[name] = provenance_block(key_size=KERNEL_KEY_BITS)
    finally:
        set_backend(None)
    ratios = {f"{op.removesuffix('_us')}_speedup_vs_python":
              costs["python"][op] / costs["openssl"][op]
              for op in costs["openssl"]}
    ratios["batch_total_speedup_vs_python"] = (batch_total_s["python"]
                                               / batch_total_s["openssl"])
    params = {"key_size": KERNEL_KEY_BITS, "ops_per_class": KERNEL_OPS}
    history = BenchHistory(HISTORY_DIR)
    for name in costs:
        metrics = dict(costs[name], batch_total_s=batch_total_s[name])
        if name == "openssl":
            metrics.update(ratios)
        history.append("paillier_kernel", {
            "bench": "paillier_kernel", "provenance": provenance[name],
            "params": dict(params, source="bench_crypto_kernel"),
            "metrics": metrics,
        })
    rows = [{"op": op.removesuffix("_us"),
             "python (us)": costs["python"][op],
             "openssl (us)": costs["openssl"][op],
             "python / openssl":
                 ratios[f"{op.removesuffix('_us')}_speedup_vs_python"]}
            for op in costs["openssl"]]
    write_result(
        results_dir, f"crypto_kernel_backends_K{KERNEL_KEY_BITS}.txt",
        f"unit operations per backend (K={KERNEL_KEY_BITS}, "
        f"{provenance['openssl']['crypto_library']})\n" + format_table(rows))
    write_bench_json(
        results_dir, f"crypto_kernel_backends_K{KERNEL_KEY_BITS}", {
            "kind": "measured", "params": params,
            "unit_costs_us": costs, "batch_total_s": batch_total_s,
            "python_over_openssl": ratios,
        })
    for op in ("powmod_us",
               *(f"multi_powmod_m{width}_us" for width in MULTI_POW_WIDTHS)):
        assert costs["openssl"][op] < costs["python"][op], (op, costs)
    assert batch_total_s["openssl"] < batch_total_s["python"]
    two_base_speedup = (2 * costs["openssl"]["powmod_us"]
                        / costs["openssl"]["multi_powmod_m2_us"])
    assert two_base_speedup >= MIN_TWO_BASE_SPEEDUP, (
        f"a native two-base multi_powmod must be >= {MIN_TWO_BASE_SPEEDUP}x "
        f"faster than two powmod calls; got {two_base_speedup:.2f}x")
    short_share = (costs["openssl"]["multi_powmod_m3_short_us"]
                   / costs["openssl"]["multi_powmod_m3_us"])
    assert short_share < MAX_SHORT_STRIP_SHARE, (
        f"a three-base strip with {SHORT_EXPONENT_BITS}-bit exponents must "
        f"cost < {MAX_SHORT_STRIP_SHARE} of a full-width one; got "
        f"{short_share:.2f}")
    shift_share = (costs["openssl"]["pack_shift_us"]
                   / costs["openssl"]["decrypt_us"])
    assert shift_share < MAX_PACK_SHIFT_SHARE, (
        f"a {PACK_SLOT_BITS}-bit Horner shift must cost < "
        f"{MAX_PACK_SHIFT_SHARE} of a decryption; got {shift_share:.2f}")
    if MIN_FIXED_BASE_SPEEDUP is not None:
        fixed_base_speedup = (costs["openssl"]["powmod_us"]
                              / costs["openssl"]["fixed_base_pow_us"])
        assert fixed_base_speedup >= MIN_FIXED_BASE_SPEEDUP, (
            f"a native fixed-base power must be >= {MIN_FIXED_BASE_SPEEDUP}x "
            f"faster than one powmod; got {fixed_base_speedup:.2f}x")


def test_kernel_weighted_sum_rows(kernel_keypair, results_dir):
    """Rows of 4 full-width scalars, under every available backend.

    python: one shared-squaring multi-exponentiation per row must beat
    ``scalar_mul_batch`` + row-wise adds (one ``pow`` per term).  openssl:
    the row is the product of native powers, which must beat the python
    backend's shared-squaring loop.
    """
    public_key = kernel_keypair.public_key
    rng = Random(79)
    width = 4
    count = KERNEL_OPS - KERNEL_OPS % width
    ciphertexts = public_key.encrypt_batch(
        [rng.randrange(1 << 16) for _ in range(count)], rng=rng)
    scalars = [rng.randrange(public_key.n) for _ in range(count)]
    starts = range(0, count, width)

    def powers_then_adds():
        sums = public_key.scalar_mul_batch(ciphertexts, scalars)
        totals = sums[0::width]
        for column in range(1, width):
            totals = public_key.add_batch(totals, sums[column::width])
        return totals

    def weighted_sums():
        return public_key.weighted_sum_batch(
            [ciphertexts[start:start + width] for start in starts],
            [scalars[start:start + width] for start in starts])

    repeats = max(MEASURE_REPEATS, 3)
    timings: dict[str, dict[str, float]] = {}
    try:
        for name in available_backends():
            set_backend(name)
            assert ([c.value for c in weighted_sums()]
                    == [c.value for c in powers_then_adds()])
            timings[name] = {
                "scalar_mul_then_add_s": _measure(powers_then_adds, repeats),
                "weighted_sum_batch_s": _measure(weighted_sums, repeats),
            }
    finally:
        set_backend(None)
    python = timings["python"]
    python["speedup"] = (python["scalar_mul_then_add_s"]
                         / python["weighted_sum_batch_s"])
    if "openssl" in timings:
        timings["openssl"]["speedup_vs_python_straus"] = (
            python["weighted_sum_batch_s"]
            / timings["openssl"]["weighted_sum_batch_s"])
    write_bench_json(results_dir, f"crypto_kernel_rows_K{KERNEL_KEY_BITS}", {
        "kind": "measured",
        "params": {"key_size": KERNEL_KEY_BITS, "terms": count,
                   "row_width": width},
        "timings": timings,
    })
    assert python["speedup"] >= MIN_ROWS_SPEEDUP, (
        f"weighted_sum_batch must be >= {MIN_ROWS_SPEEDUP}x faster than "
        f"scalar_mul_batch + adds on rows of {width}; got "
        f"{python['speedup']:.2f}x")
    if "openssl" in timings:
        assert timings["openssl"]["speedup_vs_python_straus"] > 1.0, timings


def test_kernel_operator_negation(python_backend, kernel_keypair, results_dir):
    """``-c`` is the inverse, far below ``c**(N-1)``; ``neg_batch`` shares
    one inversion between its elements, far below ``-c`` each."""
    public_key = kernel_keypair.public_key
    rng = Random(80)
    ciphertexts = public_key.encrypt_batch(
        [rng.randrange(1 << 16) for _ in range(KERNEL_OPS)], rng=rng)
    powmod = get_backend().powmod
    exponent, nsquare = public_key.n - 1, public_key.nsquare
    protocol = TwoPartyProtocol(TwoPartySetting.create(kernel_keypair))

    def by_operator():
        return [-cipher for cipher in ciphertexts]

    def by_exponentiation():
        return [powmod(cipher.value, exponent, nsquare)
                for cipher in ciphertexts]

    def by_batch():
        return [negated
                for start in range(0, len(ciphertexts), NEGATION_BATCH)
                for negated in protocol.neg_batch(
                    ciphertexts[start:start + NEGATION_BATCH])]

    assert by_operator() == by_batch()
    repeats = max(MEASURE_REPEATS, 3)
    timings = {
        "power_n_minus_1_s": _measure(by_exponentiation, repeats),
        "operator_negation_s": _measure(by_operator, repeats),
        "batch_negation_s": _measure(by_batch, repeats),
    }
    timings["speedup"] = (timings["power_n_minus_1_s"]
                          / timings["operator_negation_s"])
    timings["batch_speedup"] = (timings["operator_negation_s"]
                                / timings["batch_negation_s"])
    write_bench_json(
        results_dir, f"crypto_kernel_negation_K{KERNEL_KEY_BITS}", {
            "kind": "measured",
            "params": {"key_size": KERNEL_KEY_BITS, "ops": KERNEL_OPS,
                       "batch": NEGATION_BATCH,
                       "backend": get_backend().name},
            "timings": timings,
        })
    assert timings["speedup"] >= MIN_NEGATION_SPEEDUP, (
        f"operator negation must be >= {MIN_NEGATION_SPEEDUP}x faster than "
        f"powmod(c, N-1, N^2); got {timings['speedup']:.2f}x")
    assert timings["batch_speedup"] >= MIN_BATCH_NEGATION_SPEEDUP, (
        f"neg_batch of {NEGATION_BATCH} must be >= "
        f"{MIN_BATCH_NEGATION_SPEEDUP}x faster than as many operator "
        f"negations; got {timings['batch_speedup']:.2f}x")


def test_kernel_end_to_end_sknnb(benchmark, kernel_keypair, results_dir):
    """A full SkNN_b query through the batched scan vs the seed serial scan."""
    table = synthetic_uniform(n_records=E2E_N, dimensions=E2E_M,
                              distance_bits=10, seed=900)
    owner = DataOwner(table, keypair=kernel_keypair, rng=Random(901))
    cloud = FederatedCloud.deploy(kernel_keypair, rng=Random(902))
    cloud.c1.host_database(owner.encrypt_database())
    client = QueryClient(kernel_keypair.public_key, E2E_M, rng=Random(903))
    encrypted_query = client.encrypt_query([1] * E2E_M)

    protocol = SkNNBasic(cloud)
    ssed = SecureSquaredEuclideanDistance(cloud.setting)

    def seed_style_distance_scan():
        """The seed's per-record scan: n sequential SSED runs + n decrypts."""
        encrypted = [ssed.run(list(encrypted_query), list(r.ciphertexts))
                     for r in cloud.c1.encrypted_table]
        return [cloud.c2.decrypt_residue(c) for c in encrypted]

    def measure():
        batched = _measure(lambda: protocol.run(encrypted_query, 2))
        serial = _measure(seed_style_distance_scan)
        return {"batched_full_query_s": batched,
                "seed_distance_scan_s": serial}

    timings = benchmark.pedantic(measure, rounds=1, iterations=1,
                                 warmup_rounds=0)
    write_bench_json(results_dir, f"sknnb_end_to_end_K{KERNEL_KEY_BITS}", {
        "kind": "measured",
        "params": {"key_size": KERNEL_KEY_BITS, "n": E2E_N, "m": E2E_M,
                   "k": 2},
        "timings": timings,
    })
    benchmark.extra_info.update({
        "subsystem": "crypto-kernel", "kind": "end-to-end",
        "key_size": KERNEL_KEY_BITS,
    })
    # The batched *full query* (scan + selection + delivery) must beat the
    # seed's distance scan alone — a strictly conservative comparison.
    assert timings["batched_full_query_s"] < timings["seed_distance_scan_s"]
