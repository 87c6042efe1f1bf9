"""Small deterministic benchmarks that extend the history trajectory.

Each registered bench is intentionally tiny — the point is a cheap,
repeatable sample that CI can take on every run, not a rigorous
measurement.  Noise handling lives in :mod:`repro.bench.history` (median
± MAD baselines), so a bench only has to be *deterministic in its work*:
fixed seeds, fixed key, fixed dataset.  The operation counts it reports
are exactly reproducible; the timings are the noisy part the baselines
absorb.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Iterable

from repro.bench.provenance import provenance_block

__all__ = ["BenchSpec", "REGISTRY", "register", "run_suite"]

KEY_BITS = 256


@dataclass(frozen=True)
class BenchSpec:
    name: str
    description: str
    func: Callable[[bool], dict[str, Any]]


REGISTRY: dict[str, BenchSpec] = {}


def register(name: str, description: str):
    def decorate(func: Callable[[bool], dict[str, Any]]) -> Callable:
        REGISTRY[name] = BenchSpec(name=name, description=description,
                                   func=func)
        return func
    return decorate


def _record(name: str, params: dict[str, Any],
            metrics: dict[str, Any],
            **provenance: Any) -> dict[str, Any]:
    return {
        "bench": name,
        "provenance": dict(provenance_block(key_size=KEY_BITS), **provenance),
        "params": params,
        "metrics": metrics,
    }


def _deploy(n_records: int, dimensions: int, distance_bits: int):
    from repro.core.cloud import FederatedCloud
    from repro.core.roles import DataOwner, QueryClient
    from repro.crypto.paillier import generate_keypair
    from repro.db.datasets import synthetic_uniform

    keypair = generate_keypair(KEY_BITS, Random(5150))
    table = synthetic_uniform(n_records=n_records, dimensions=dimensions,
                              distance_bits=distance_bits, seed=5)
    owner = DataOwner(table, keypair=keypair, rng=Random(1))
    cloud = FederatedCloud.deploy(keypair, rng=Random(2))
    cloud.c1.host_database(owner.encrypt_database())
    client = QueryClient(keypair.public_key, dimensions, rng=Random(3))
    return keypair, cloud, client


@register("paillier_kernel",
          "encrypt/decrypt/scalar-mul/weighted-sum batch kernels at 256-bit")
def bench_paillier_kernel(quick: bool) -> dict[str, Any]:
    from repro.crypto.paillier import generate_keypair

    batch = 16 if quick else 64
    keypair = generate_keypair(KEY_BITS, Random(5150))
    pk, sk = keypair.public_key, keypair.private_key
    values = [Random(7).randrange(1, 1 << 30) for _ in range(batch)]

    start = time.perf_counter()
    ciphers = pk.encrypt_batch(values)
    encrypt_s = time.perf_counter() - start

    start = time.perf_counter()
    pk.scalar_mul_batch(ciphers, 3)
    scalar_mul_s = time.perf_counter() - start

    start = time.perf_counter()
    sk.decrypt_batch(ciphers)
    decrypt_s = time.perf_counter() - start

    # scalar_mul_batch_s above is a 2-bit exponent (kept: the rolling gate
    # compares against it).  What the protocols' strip steps pay is uniform
    # Z_N scalars — timed once as independent exponentiations and once as
    # rows of 4 through the shared-squaring multi-exponentiation.
    scalar_rng = Random(8)
    scalars = [scalar_rng.randrange(pk.n) for _ in range(batch)]
    start = time.perf_counter()
    pk.scalar_mul_batch(ciphers, scalars)
    fullwidth_s = time.perf_counter() - start

    rows = range(0, batch, 4)
    start = time.perf_counter()
    pk.weighted_sum_batch([ciphers[row:row + 4] for row in rows],
                          [scalars[row:row + 4] for row in rows])
    weighted_sum_s = time.perf_counter() - start

    return _record(
        "paillier_kernel",
        {"key_size": KEY_BITS, "batch": batch, "quick": quick},
        {
            "encrypt_batch_s": encrypt_s,
            "scalar_mul_batch_s": scalar_mul_s,
            "scalar_mul_fullwidth_s": fullwidth_s,
            "weighted_sum_rows4_s": weighted_sum_s,
            "decrypt_batch_s": decrypt_s,
            "encrypt_per_second": batch / encrypt_s if encrypt_s else 0.0,
        },
    )


def _query_bench(name: str, protocol_factory, n_records: int,
                 distance_bits: int, k: int) -> dict[str, Any]:
    from repro.protocols.base import PIPELINE_MIN_ITEMS

    dimensions = 2
    keypair, cloud, client = _deploy(n_records, dimensions, distance_bits)
    protocol = protocol_factory(cloud, distance_bits)
    query = client.encrypt_query([3, 4])

    start = time.perf_counter()
    protocol.run_with_report(query, k, distance_bits=distance_bits)
    query_s = time.perf_counter() - start

    report = protocol.last_report
    stats = report.stats
    metrics: dict[str, Any] = {
        "query_s": query_s,
        "encryptions": stats.total_encryptions,
        "exponentiations": stats.total_exponentiations,
        "decryptions": stats.c2_decryptions,
        "messages": stats.messages,
    }
    for row in report.cost_breakdown:
        if row["party"] == "C1":
            metrics[f"phase.{row['phase']}_s"] = row["seconds"]
    # A query's message count depends on how its batched rounds are split
    # into frames, so rows taken under another split rule (or before there
    # was one) are a different regime, like another backend or key size.
    return _record(
        name,
        {"key_size": KEY_BITS, "n_records": n_records,
         "dimensions": dimensions, "distance_bits": distance_bits, "k": k},
        metrics,
        round_split=PIPELINE_MIN_ITEMS,
    )


@register("sknn_basic_query", "one serial SkNN_b query (n=12, k=2)")
def bench_sknn_basic(quick: bool) -> dict[str, Any]:
    from repro.core.sknn_basic import SkNNBasic

    n = 12 if quick else 24
    return _query_bench(
        "sknn_basic_query",
        lambda cloud, bits: SkNNBasic(cloud),
        n_records=n, distance_bits=7, k=2)


@register("sknn_secure_query", "one serial SkNN_m query (n=6, k=2)")
def bench_sknn_secure(quick: bool) -> dict[str, Any]:
    from repro.core.sknn_secure import SkNNSecure

    n = 6 if quick else 10
    return _query_bench(
        "sknn_secure_query",
        lambda cloud, bits: SkNNSecure(cloud, distance_bits=bits),
        n_records=n, distance_bits=7, k=2)


@register("service_throughput",
          "sharded scatter-gather serving throughput (2 shards, batched)")
def bench_service_throughput(quick: bool) -> dict[str, Any]:
    from repro.service.scheduler import QueryServer
    from repro.service.sharding import ShardedCloud

    n = 12 if quick else 24
    n_queries = 2 if quick else 4
    dimensions, distance_bits, k = 2, 7, 2
    keypair, cloud, client = _deploy(n, dimensions, distance_bits)
    rng = Random(7)
    queries = [[rng.randrange(0, 1 << (distance_bits // 2))
                for _ in range(dimensions)] for _ in range(n_queries)]

    sharded = ShardedCloud(cloud, shards=2, workers=2, backend="thread")
    server = QueryServer(sharded, batch_size=n_queries, rng=Random(11))
    session = server.open_session("bench")
    try:
        start = time.perf_counter()
        pending = [session.submit(query, k) for query in queries]
        server.flush()
        answers = [item.result(timeout=600) for item in pending]
        wall_s = time.perf_counter() - start
    finally:
        server.close()
    if any(len(answer.neighbors) != k for answer in answers):
        raise RuntimeError("service bench returned a malformed answer")
    return _record(
        "service_throughput",
        {"key_size": KEY_BITS, "n_records": n, "dimensions": dimensions,
         "distance_bits": distance_bits, "k": k, "queries": n_queries,
         "shards": 2, "quick": quick},
        {
            "wall_s": wall_s,
            "queries_per_second": n_queries / wall_s if wall_s else 0.0,
        },
    )


def run_suite(names: Iterable[str] | None = None,
              quick: bool = False) -> list[dict[str, Any]]:
    """Run the selected (default: all) benches, returning history records."""
    selected = list(names) if names else sorted(REGISTRY)
    unknown = [name for name in selected if name not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown bench(es): {', '.join(unknown)}; "
                       f"available: {', '.join(sorted(REGISTRY))}")
    return [REGISTRY[name].func(quick) for name in selected]
