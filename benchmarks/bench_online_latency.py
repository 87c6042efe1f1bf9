"""Online-latency benchmark: warm precompute pools vs. the inline batched path.

PR 2 made the crypto kernel fast per call; the precomputation engine makes
the *online* path nearly powmod-free by moving the query-independent
exponentiations (the ``r^N`` obfuscator of every mask, constant and
re-encryption) into idle time.  This bench quantifies that offline/online split on a full
SkNN_b query:

* **inline** — :class:`~repro.core.sknn_basic.SkNNBasic` without an engine:
  comb obfuscators, paying every exponentiation inside the query.
* **warm** — the same protocol instance with warmed per-cloud
  :class:`~repro.crypto.precompute.PrecomputeEngine`s attached (one per
  cloud, each filled with its own randomness, as the non-colluding model
  requires): scan and delivery masks are encrypted off C1's pooled
  obfuscators, C2's square-sum re-encryptions off C2's.

Both paths run the *same* protocol — the fused SSED round, 1 decryption and
1 exponentiation per attribute online — so the only work pools can hide is
the ``n*m + n + k*m`` comb encryptions, roughly a seventh of the inline
query's time.  (Before the fused round the inline scan squared through the
generic SM pair protocol and the ratio was ~2.1x; that gap was the inline
path's waste, not the pools' merit.)  The gate is therefore a *direction*
gate at every key size — warm must not be slower than inline beyond
``WARM_SLACK`` — plus a check that ``warm_query_s`` itself has not regressed
against its committed trajectory in ``benchmarks/history/``; both paths must
return identical neighbor records.

Pools are refilled **between** timed runs (that is the engine's contract:
refills happen off the critical path), and the refill cost is reported
separately as the offline price of one warm query.

Key size defaults to the paper's K=512; CI smoke runs set
``REPRO_BENCH_ONLINE_BITS=256``.  The bench pins the python bigint backend
(``python_backend`` fixture): the inline path it measures *is* that
backend's comb, and the 5% overhead gates below are fractions of the
python-backend query (20 ms at K=256 on this box; on libcrypto it is
6 ms and one fsync-ed journal append alone reads +9%).
Results go to ``benchmarks/results/`` as a txt table and machine-readable
``BENCH_online_latency_K<bits>.json``.
"""

from __future__ import annotations

import os
import time
from itertools import count
from random import Random

import pytest

from benchmarks.conftest import HISTORY_DIR, write_bench_json, write_result
from repro.analysis.cost_model import (OperationCounts, pool_targets,
                                       sknn_basic_cost)
from repro.analysis.reporting import format_table
from repro.bench import BenchHistory, check_history
from repro.telemetry import tracing
from repro.telemetry import profiling as tprofiling
from repro.core.cloud import FederatedCloud
from repro.core.roles import DataOwner, QueryClient
from repro.core.sknn_basic import SkNNBasic
from repro.crypto.backend import get_backend
from repro.crypto.paillier import generate_keypair
from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine
from repro.db.datasets import synthetic_uniform
from repro.db.knn import LinearScanKNN
from repro.resilience import (Deadline, Journal, ReplyCache, RetryPolicy,
                              retry_call)

ONLINE_KEY_BITS = int(os.environ.get("REPRO_BENCH_ONLINE_BITS", "512"))
ONLINE_N = int(os.environ.get("REPRO_BENCH_ONLINE_N", "16"))
ONLINE_M = 3
ONLINE_K = 2
#: measured repeats per path (best-of, to damp scheduler noise)
REPEATS = int(os.environ.get("REPRO_BENCH_ONLINE_REPEATS",
                             "2" if ONLINE_KEY_BITS >= 512 else "5"))
#: direction gate: the warm online path may be at most this factor slower
#: than the inline path (scheduler noise allowance; see the module docstring).
WARM_SLACK = 1.05
#: tracing a query (span per protocol round) must cost <= 5% wall clock.
TELEMETRY_OVERHEAD_GATE = 0.05
#: arming the resilience stack (shared deadline, retry wrapper, idempotent
#: reply memo) on the happy path must also cost <= 5% wall clock.
RESILIENCE_OVERHEAD_GATE = 0.05
#: giving the reply memo a journal (one CRC-framed, fsync-ed append per
#: completed query) must also cost <= 5%.
DURABILITY_OVERHEAD_GATE = 0.05
#: arming the ~100 Hz sampling profiler plus the per-query cost ledger on
#: the warm online path must also cost <= 5% wall clock.
PROFILING_OVERHEAD_GATE = 0.05


@pytest.fixture(scope="module")
def online_keypair():
    """One key pair shared by both measured paths."""
    return generate_keypair(ONLINE_KEY_BITS, Random(6464))


def _best_of(fn, repeats: int, between=None) -> float:
    best = None
    for index in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
        if between is not None and index + 1 < repeats:
            between()
    return best


def _paired_overhead(wrapped: list, baseline: list) -> float:
    """Median of per-round wrapped/baseline ratios.

    Each round's samples run back to back, so machine drift cancels within
    a pair, and the median sheds the occasional scheduler-outlier round
    that a best-of comparison would amplify.
    """
    ratios = sorted(w / b for w, b in zip(wrapped, baseline))
    mid = len(ratios) // 2
    median = (ratios[mid] if len(ratios) % 2
              else (ratios[mid - 1] + ratios[mid]) / 2.0)
    return median - 1.0


def _split(offline_encryptions: float, online: OperationCounts) -> dict:
    """An offline/online split: offline, the pools' encryptions (one
    obfuscator each); online, what the query still pays."""
    return {"offline": OperationCounts(
                encryptions=offline_encryptions).as_dict(),
            "online": online.as_dict()}


def _window(before: dict, after: dict, key: str) -> int:
    """Both engines' growth of one :meth:`PrecomputeEngine.stats` count."""
    return sum(after[party][key] - before[party][key] for party in after)


def test_online_latency_warm_pools_vs_inline(benchmark, python_backend,
                                             online_keypair, results_dir,
                                             tmp_path):
    """Warm pools must not slow the online SkNN_b query, nor regress."""
    public_key = online_keypair.public_key
    table = synthetic_uniform(n_records=ONLINE_N, dimensions=ONLINE_M,
                              distance_bits=10, seed=777)
    owner = DataOwner(table, keypair=online_keypair, rng=Random(778))
    cloud = FederatedCloud.deploy(online_keypair, rng=Random(779))
    cloud.c1.host_database(owner.encrypt_database())
    client = QueryClient(public_key, ONLINE_M, rng=Random(780))
    query = [4, 9, 2]
    encrypted_query = client.encrypt_query(query)
    protocol = SkNNBasic(cloud)

    def measure():
        # Warm the per-key comb table outside both measurements (the inline
        # path builds it lazily on the first batch encryption).
        protocol.run(encrypted_query, ONLINE_K)

        inline_seconds = _best_of(
            lambda: protocol.run(encrypted_query, ONLINE_K), REPEATS)
        inline_shares = protocol.run(encrypted_query, ONLINE_K)

        c1_target, c2_target = pool_targets(ONLINE_N, ONLINE_M, ONLINE_K,
                                            queries=1)
        c1_engine = PrecomputeEngine(
            public_key, rng=Random(781),
            config=PrecomputeConfig(obfuscators=c1_target))
        c2_engine = PrecomputeEngine(
            online_keypair.private_key, rng=Random(782),
            config=PrecomputeConfig(obfuscators=c2_target))

        def refill_all():
            c1_engine.warm()
            c2_engine.warm()

        refill_started = time.perf_counter()
        refill_all()
        refill_seconds = time.perf_counter() - refill_started
        cloud.attach_engine(c1_engine, c2_engine)
        try:
            def warm_run():
                protocol.run(encrypted_query, ONLINE_K)

            # Telemetry overhead: the same warm path with a live trace
            # collecting every protocol-round span.  The acceptance bar is
            # <= 5% on the latency-critical (warm) path.
            def traced_run():
                with tracing.trace("bench.telemetry_overhead",
                                   party="C1") as root:
                    protocol.run(encrypted_query, ONLINE_K)
                tracing.get_tracer().take(root.trace_id)

            # Resilience overhead: the same warm path with the full client
            # resilience stack armed — one shared absolute deadline, the
            # retry wrapper and a per-query idempotency memo — on a run
            # where nothing fails.  Every query uses a fresh key, so the
            # memo does bookkeeping (insert + evict), never a replay.
            reply_cache = ReplyCache(capacity=8, name="bench")
            retry_policy = RetryPolicy()
            retry_rng = Random(783)
            query_ids = count(1)

            def resilient_run():
                key = f"bench-q-{next(query_ids)}"
                retry_call(
                    lambda: reply_cache.run(
                        key,
                        lambda: protocol.run(encrypted_query, ONLINE_K)),
                    retry_policy, op="bench.resilience", rng=retry_rng,
                    deadline=Deadline(60.0))

            # Durability overhead: the same armed stack, but the reply memo
            # has a journal — every completed query appends one
            # CRC-framed record to an fsync-ed journal before the reply
            # becomes visible (the crash-recovery write path, on a run
            # where nothing crashes).
            durable_cache = ReplyCache(
                capacity=8, name="bench-durable",
                journal=Journal(tmp_path / "bench-replies.journal",
                                name="bench-durable"))

            def durable_wire_reply():
                # The daemon journals the wire-shaped reply payload (plain
                # ints and lists), not the ResultShares object — mirror that
                # so the journal write is representative.
                shares = protocol.run(encrypted_query, ONLINE_K)
                return {"masks": shares.masks_from_c1,
                        "masked": shares.masked_values_from_c2,
                        "modulus": shares.modulus,
                        "delivery_id": shares.delivery_id}

            def durable_run():
                key = f"bench-dq-{next(query_ids)}"
                retry_call(
                    lambda: durable_cache.run(key, durable_wire_reply),
                    retry_policy, op="bench.durability", rng=retry_rng,
                    deadline=Deadline(60.0))

            # Profiling overhead: the same warm path with the ~100 Hz
            # sampling profiler armed and a per-query cost ledger
            # attributing Paillier ops + wall time to protocol phases —
            # the exact instrumentation a `--profile` daemon runs per
            # query.  The profiler is always-on in the daemon, so its
            # thread is started/stopped outside the timed window; the
            # in-query cost under test is the sampling itself plus the
            # ledger's snapshot/flush work.
            profiler = tprofiling.SamplingProfiler()

            def profiled_run():
                ledger = tprofiling.CostLedger.for_setting(cloud.setting)
                with ledger.activate():
                    protocol.run(encrypted_query, ONLINE_K)
                ledger.finish()

            def timed(fn):
                refill_all()
                started = time.perf_counter()
                fn()
                return time.perf_counter() - started

            # The three warm variants are sampled interleaved, one of each
            # per round, so slow drift (CPU frequency, allocator state)
            # lands on all of them equally instead of penalizing whichever
            # path happens to run last; the overhead gates then compare
            # best-of samples taken under the same conditions.
            samples = {"warm": [], "traced": [], "resilient": [],
                       "durable": [], "profiled": []}
            for _ in range(REPEATS):
                samples["warm"].append(timed(warm_run))
                samples["traced"].append(timed(traced_run))
                samples["resilient"].append(timed(resilient_run))
                samples["durable"].append(timed(durable_run))
                profiler.start()
                samples["profiled"].append(timed(profiled_run))
                profiler.stop()
            # The profiling delta (a ~100 Hz sampler + ledger snapshots) is
            # small relative to scheduler noise, so its gate gets twice the
            # paired rounds to stabilize the median.
            for _ in range(REPEATS):
                samples["warm"].append(timed(warm_run))
                profiler.start()
                samples["profiled"].append(timed(profiled_run))
                profiler.stop()
            durable_cache.close()
            warm_seconds = min(samples["warm"])
            traced_seconds = min(samples["traced"])
            resilient_seconds = min(samples["resilient"])
            durable_seconds = min(samples["durable"])
            profiled_seconds = min(samples["profiled"])
            telemetry_overhead = _paired_overhead(samples["traced"],
                                                  samples["warm"])
            resilience_overhead = _paired_overhead(samples["resilient"],
                                                   samples["warm"])
            durability_overhead = _paired_overhead(samples["durable"],
                                                   samples["warm"])
            profiling_overhead = _paired_overhead(samples["profiled"],
                                                  samples["warm"])

            # Measured offline/online split over one windowed warm query:
            # the refill is the offline price, the reported run the online
            # one (pool hits subtracted from the encryption counter).
            before = {"c1": c1_engine.stats(), "c2": c2_engine.stats()}
            refill_all()
            warm_shares = protocol.run_with_report(encrypted_query, ONLINE_K)
            run = protocol.last_report.stats
            stats = {"c1": c1_engine.stats(), "c2": c2_engine.stats()}
            measured_split = _split(
                _window(before, stats, "offline_encryptions"),
                OperationCounts(
                    run.total_encryptions
                    - _window(before, stats, "obfuscator_hits"),
                    run.total_decryptions, run.total_exponentiations))
        finally:
            cloud.attach_engine(None)
        return (inline_seconds, warm_seconds, traced_seconds,
                resilient_seconds, durable_seconds, profiled_seconds,
                telemetry_overhead, resilience_overhead,
                durability_overhead, profiling_overhead,
                refill_seconds, inline_shares, warm_shares, stats,
                measured_split)

    (inline_seconds, warm_seconds, traced_seconds, resilient_seconds,
     durable_seconds, profiled_seconds, telemetry_overhead,
     resilience_overhead, durability_overhead, profiling_overhead,
     refill_seconds, inline_shares,
     warm_shares, stats, measured_split) = benchmark.pedantic(
        measure, rounds=1, iterations=1, warmup_rounds=0)
    speedup = inline_seconds / warm_seconds

    # Protocol outputs must be bit-identical across the two paths (the
    # ciphertext randomness differs; the delivered plaintext records do not).
    inline_neighbors = client.reconstruct(inline_shares)
    warm_neighbors = client.reconstruct(warm_shares)
    assert inline_neighbors == warm_neighbors
    oracle = [r.record.values for r in LinearScanKNN(table).query(query,
                                                                 ONLINE_K)]
    assert warm_neighbors == oracle

    # Under warm pools the offline work is the entry's encryptions.
    inline_model = sknn_basic_cost(ONLINE_N, ONLINE_M, ONLINE_K).total
    split = _split(inline_model.encryptions, OperationCounts(
        decryptions=inline_model.decryptions,
        exponentiations=inline_model.exponentiations))
    rows = [{
        "path": "inline (no pools)",
        "online (ms)": inline_seconds * 1000,
        "offline (ms)": 0.0,
    }, {
        "path": "warm pools",
        "online (ms)": warm_seconds * 1000,
        "offline (ms)": refill_seconds * 1000,
    }, {
        "path": "warm pools + tracing",
        "online (ms)": traced_seconds * 1000,
        "offline (ms)": refill_seconds * 1000,
    }, {
        "path": "warm pools + resilience",
        "online (ms)": resilient_seconds * 1000,
        "offline (ms)": refill_seconds * 1000,
    }, {
        "path": "warm pools + durability",
        "online (ms)": durable_seconds * 1000,
        "offline (ms)": refill_seconds * 1000,
    }, {
        "path": "warm pools + profiling",
        "online (ms)": profiled_seconds * 1000,
        "offline (ms)": refill_seconds * 1000,
    }]
    text = (f"SkNN_b online latency (K={ONLINE_KEY_BITS}, n={ONLINE_N}, "
            f"m={ONLINE_M}, k={ONLINE_K}, backend={get_backend().name})\n"
            + format_table(rows)
            + f"warm-pool speedup: {speedup:.2f}x "
            + f"(gate: warm <= {WARM_SLACK}x inline)\n"
            + f"telemetry overhead: {telemetry_overhead * 100:+.2f}% "
            + f"(gate {TELEMETRY_OVERHEAD_GATE * 100:.0f}%)\n"
            + f"resilience overhead: {resilience_overhead * 100:+.2f}% "
            + f"(gate {RESILIENCE_OVERHEAD_GATE * 100:.0f}%)\n"
            + f"durability overhead: {durability_overhead * 100:+.2f}% "
            + f"(gate {DURABILITY_OVERHEAD_GATE * 100:.0f}%)\n"
            + f"profiling overhead: {profiling_overhead * 100:+.2f}% "
            + f"(gate {PROFILING_OVERHEAD_GATE * 100:.0f}%)\n")
    write_result(results_dir, f"online_latency_K{ONLINE_KEY_BITS}.txt", text)
    bench_name = f"online_latency_K{ONLINE_KEY_BITS}"
    write_bench_json(results_dir, bench_name, {
        "kind": "measured",
        # Outside "timings": the ratio is gated below, not against the
        # history trajectory recorded when the inline scan was generic SM.
        "speedup": speedup,
        "params": {"key_size": ONLINE_KEY_BITS, "n": ONLINE_N, "m": ONLINE_M,
                   "k": ONLINE_K, "repeats": REPEATS},
        "timings": {
            "inline_query_s": inline_seconds,
            "warm_query_s": warm_seconds,
            "traced_query_s": traced_seconds,
            "resilient_query_s": resilient_seconds,
            "durable_query_s": durable_seconds,
            "profiled_query_s": profiled_seconds,
            "offline_refill_s": refill_seconds,
            "telemetry_overhead": telemetry_overhead,
            "resilience_overhead": resilience_overhead,
            "durability_overhead": durability_overhead,
            "profiling_overhead": profiling_overhead,
        },
        "model": {
            "inline_counts": inline_model.as_dict(),
            "split": split,
            "measured_split": measured_split,
        },
        "engine_stats": stats,
    })
    benchmark.extra_info.update({
        "subsystem": "precompute", "key_size": ONLINE_KEY_BITS,
        "backend": get_backend().name, "speedup": speedup,
        "telemetry_overhead": telemetry_overhead,
        "resilience_overhead": resilience_overhead,
        "durability_overhead": durability_overhead,
        "profiling_overhead": profiling_overhead,
    })

    assert warm_seconds <= inline_seconds * WARM_SLACK, (
        f"warm-pool online path ({warm_seconds:.3f}s) must not be slower "
        f"than the inline path ({inline_seconds:.3f}s) by more than "
        f"{WARM_SLACK}x; got {speedup:.2f}x")
    # write_bench_json just appended this run, so the latest history record
    # is this one: warm_query_s must sit within its rolling baseline.
    slower = [finding for finding in check_history(
                  bench_name, BenchHistory(HISTORY_DIR).load(bench_name))
              if finding.metric == "warm_query_s"]
    assert not slower, slower[0].describe()
    assert telemetry_overhead <= TELEMETRY_OVERHEAD_GATE, (
        f"tracing the warm path ({traced_seconds:.3f}s) must stay within "
        f"{TELEMETRY_OVERHEAD_GATE:.0%} of the untraced run "
        f"({warm_seconds:.3f}s); got {telemetry_overhead:+.2%}")
    assert resilience_overhead <= RESILIENCE_OVERHEAD_GATE, (
        f"arming deadlines+retry+idempotency ({resilient_seconds:.3f}s) "
        f"must stay within {RESILIENCE_OVERHEAD_GATE:.0%} of the bare warm "
        f"run ({warm_seconds:.3f}s); got {resilience_overhead:+.2%}")
    assert durability_overhead <= DURABILITY_OVERHEAD_GATE, (
        f"the durable reply journal ({durable_seconds:.3f}s) must stay "
        f"within {DURABILITY_OVERHEAD_GATE:.0%} of the bare warm run "
        f"({warm_seconds:.3f}s); got {durability_overhead:+.2%}")
    assert profiling_overhead <= PROFILING_OVERHEAD_GATE, (
        f"profiler + cost ledger ({profiled_seconds:.3f}s) must stay "
        f"within {PROFILING_OVERHEAD_GATE:.0%} of the bare warm run "
        f"({warm_seconds:.3f}s); got {profiling_overhead:+.2%}")
