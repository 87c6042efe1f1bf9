"""From one measured window to the metrics BENCHMARK.json names.

End-to-end metrics are what Bob and the two clouds' operator see.  Per-layer
metrics are named ``<module>.<metric>`` and come from three sources outside
the program: the benchmark's own spans, the public reports the program
already returns (``SkNNRunReport``, ``RemoteCloud.stats()``,
``ServerStats.snapshot()``, ``PrecomputeEngine.stats()``), and the drills.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Iterable, Sequence

from benchmarks.e2e.loadgen import Sample, WindowResult

__all__ = ["percentile", "tail_percentile", "end_to_end", "per_layer"]

#: the percentiles a tail may be reported at
_TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: a percentile is reported only with this many samples beyond it
_MIN_SAMPLES_BEYOND = 10

_CORE_PHASES = ("scan", "select", "deliver", "decompose", "eliminate",
                "extract", "other")


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int) -> float | None:
    """The highest percentile with at least ten samples beyond it.

    ``None`` below twenty samples, where not even the median qualifies.
    """
    eligible = [pct for pct in _TAIL_LADDER
                if samples * (100.0 - pct) / 100.0 >= _MIN_SAMPLES_BEYOND]
    return max(eligible, default=None)


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _per_query_counts(samples: Sequence[Sample]) -> tuple[float, float, bool]:
    """Mean framed C1↔C2 bytes and crypto ops per query, and whether the op
    count was the same for every report.

    A scheduler batch hands the *same* stats object to every query it
    answered, so each distinct object is counted once and the sum divided
    by the number of queries.
    """
    stats = {id(sample.answer.report.stats): sample.answer.report.stats
             for sample in samples}
    ops = [s.c1_encryptions + s.c1_exponentiations + s.c2_encryptions
           + s.c2_decryptions + s.c2_exponentiations for s in stats.values()]
    total_bytes = sum(s.bytes_transferred for s in stats.values())
    return (total_bytes / len(samples), sum(ops) / len(samples),
            len(set(ops)) == 1)


def end_to_end(result: WindowResult
               ) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics, plus notes that are not metrics."""
    good = [sample for sample in result.samples if sample.correct]
    if not good:
        raise RuntimeError("no query was answered correctly:\n" + "\n".join(
            sample.error or f"wrong answer to {sample.query}"
            for sample in result.samples))
    bytes_per_query, ops_per_query, ops_repeat = _per_query_counts(good)
    raw = {
        "setup_s": statistics.median(result.setup_s),
        "query_p50_ms": _median(s.latency_s for s in good) * 1e3,
        "throughput_qps": len(good) / result.window_s,
        "cpu_s_per_query": result.cpu_s / len(result.samples),
    }
    # Times are stated at the machine's nominal speed: divided by how much
    # slower than that it ran during the phase (calibration.py).
    metrics = {
        "setup_s": raw["setup_s"] / result.setup_slowdown,
        "query_p50_ms": raw["query_p50_ms"] / result.window_slowdown,
        "throughput_qps": raw["throughput_qps"] * result.window_slowdown,
        "cpu_s_per_query": raw["cpu_s_per_query"] / result.window_slowdown,
        "peak_rss_mb": result.peak_rss_mb,
        "c1c2_bytes_per_query": bytes_per_query,
        "crypto_ops_per_query": ops_per_query,
    }
    return metrics, {"crypto_ops_repeat_exactly": ops_repeat,
                     "setup_cycles": len(result.setup_s),
                     "setup_slowdown": result.setup_slowdown,
                     "window_slowdown": result.window_slowdown,
                     "as_measured": raw}


def _delta(after: dict[str, float], before: dict[str, float]) -> float:
    return sum(after.values()) - sum(before.values())


def _pool_hit_ratio(result: WindowResult) -> float:
    """Share of the window's pooled draws (mask tuples, constants and
    obfuscators, both clouds' engines) that found the pool warm."""
    before = result.reports_before.get("engines", {})
    hits = misses = 0.0
    for party, stats in result.reports_after.get("engines", {}).items():
        earlier = before[party]
        hits += (_delta(stats["hits"], earlier["hits"])
                 + stats["obfuscator_hits"] - earlier["obfuscator_hits"])
        misses += (_delta(stats["misses"], earlier["misses"])
                   + stats["obfuscator_misses"]
                   - earlier["obfuscator_misses"])
    return hits / (hits + misses) if hits + misses else 0.0


def _overhead_bytes_ratio(result: WindowResult) -> float:
    """Share of C2's peer bytes spent on ``telemetry.*``/``transport.*``
    tags (C2 terminates every peer link, shard legs included)."""
    def tag_bytes(reports: dict[str, Any]) -> dict[str, float]:
        tags = reports["daemons"]["c2"].get("traffic_by_tag", {})
        return {tag: entry["bytes"] for tag, entry in tags.items()}
    before = tag_bytes(result.reports_before)
    window = {tag: count - before.get(tag, 0)
              for tag, count in tag_bytes(result.reports_after).items()}
    overhead = sum(count for tag, count in window.items()
                   if tag.startswith(("telemetry.", "transport.")))
    return overhead / sum(window.values()) if sum(window.values()) else 0.0


def _daemon_metrics(result: WindowResult, good: Sequence[Sample]
                    ) -> dict[str, float]:
    """Per-party busy time from the stitched ``cost_breakdown`` rows, and
    what the daemons' own stats say about the window."""
    metrics = dict.fromkeys((
        "transport.daemon.c1_busy_s_per_query",
        "transport.daemon.c2_busy_s_per_query",
        "transport.daemon.shard_busy_s_per_query",
        "transport.daemon.shard_skew",
        "transport.daemon.unattributed_s_per_query",
        "transport.daemon.peer_messages_per_query",
        "transport.daemon.overhead_bytes_ratio"), 0.0)
    metrics["transport.daemon.retries"] = result.retries
    if "daemons" not in result.reports_after:
        return metrics
    c1, c2, shard_mean, skew = [], [], [], []
    for sample in good:
        busy: dict[str, float] = defaultdict(float)
        for row in sample.answer.report.cost_breakdown:
            busy[row["party"]] += row["seconds"]
        shards = [seconds for party, seconds in busy.items()
                  if party.startswith("C1-shard")]
        c1.append(busy.get("C1", 0.0))
        c2.append(busy.get("C2", 0.0))
        if shards:
            shard_mean.append(statistics.fmean(shards))
            skew.append(max(shards) / min(shards))
    metrics.update({
        "transport.daemon.c1_busy_s_per_query": _median(c1),
        "transport.daemon.c2_busy_s_per_query": _median(c2),
        "transport.daemon.shard_busy_s_per_query": _median(shard_mean),
        "transport.daemon.shard_skew": _median(skew),
        "transport.daemon.unattributed_s_per_query": _median(
            s.latency_s - s.answer.report.wall_time_seconds for s in good),
        "transport.daemon.peer_messages_per_query": _median(
            s.answer.report.stats.messages for s in good),
        "transport.daemon.overhead_bytes_ratio":
            _overhead_bytes_ratio(result),
    })
    return metrics


def per_layer(result: WindowResult, drills: dict[str, float]
              ) -> dict[str, float]:
    """Every per-layer metric of a traced run."""
    tracer = result.tracer
    good = [sample for sample in result.samples if sample.correct]
    traced = [s.latency_s for s in good if s.traced]
    untraced = [s.latency_s for s in good if not s.traced]
    if not traced or not untraced:
        raise RuntimeError(
            f"traced window too short: {len(untraced)} untraced and "
            f"{len(traced)} traced answers")
    tail_pct = tail_percentile(len(traced))

    def span_median(name: str) -> float:
        return _median(tracer.durations(name))

    def phase(name: str, marker: str) -> float:
        """Median of one ``report.phase_seconds`` entry over the reports
        that carry ``marker`` (``scan``: SkNN protocols; ``distance``: the
        sharded store)."""
        return _median(
            s.answer.report.phase_seconds.get(name, 0.0) for s in good
            if marker in s.answer.report.phase_seconds)

    distributed = "daemons" in result.reports_after
    engines = result.reports_before.get("engines", {})
    server_before = result.reports_before.get("server")
    server_after = result.reports_after.get("server")
    batches = (server_after["batches_served"]
               - server_before["batches_served"]) if server_after else 0

    metrics = dict(drills)
    metrics.update(_daemon_metrics(result, good))
    metrics.update({
        "crypto.paillier.keygen_s": result.keygen_s,
        "crypto.precompute.warm_s": sum(
            tracer.durations("crypto.precompute.warm")),
        "crypto.precompute.items_warmed": float(sum(
            stats["offline_encryptions"] for stats in engines.values())),
        "crypto.precompute.pool_hit_ratio": _pool_hit_ratio(result),
        "transport.supervisor.spawn_s":
            span_median("transport.supervisor.spawn"),
        # provisioning encrypts the table itself; that part is Alice's
        "transport.supervisor.provision_s": max(
            0.0, span_median("transport.supervisor.provision")
            - span_median("core.roles.encrypt_database")),
        "transport.supervisor.shutdown_s":
            result.teardown_s if distributed else 0.0,
        "core.roles.encrypt_database_s":
            span_median("core.roles.encrypt_database"),
        "core.roles.encrypt_query_ms": _median(
            s.answer.encrypt_s for s in good) * 1e3,
        "core.roles.reconstruct_ms": _median(
            s.answer.reconstruct_s for s in good) * 1e3,
        "transport.client.query_ms":
            span_median("transport.client.query") * 1e3,
        "transport.client.control_roundtrip_ms":
            result.control_roundtrip_s * 1e3,
        "service.sharding.distance_s": phase("distance", "distance"),
        "service.sharding.merge_s": phase("merge", "distance"),
        "service.sharding.deliver_s": phase("deliver", "distance"),
        "service.scheduler.queue_wait_ms":
            phase("queue_wait", "distance") * 1e3,
        "service.scheduler.mean_batch_size":
            (server_after["queries_served"]
             - server_before["queries_served"]) / batches if batches else 0.0,
        "loadgen.machine_slowdown": result.window_slowdown,
        "loadgen.samples": float(len(traced)),
        "loadgen.window_s": result.window_s,
        "loadgen.first_query_ms": result.first_query_s * 1e3,
        "loadgen.query_tail_pct": tail_pct or 0.0,
        "loadgen.query_tail_ms":
            percentile(traced, tail_pct) * 1e3 if tail_pct else 0.0,
        "loadgen.trace_overhead_pct":
            (statistics.median(traced) / statistics.median(untraced) - 1)
            * 100.0,
    })
    for name in _CORE_PHASES:
        metrics[f"core.sknn.phase_{name}_s"] = phase(name, "scan")
    return metrics
