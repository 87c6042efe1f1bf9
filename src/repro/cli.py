"""Command-line interface for the SkNN reproduction library.

Usage (after installation)::

    python -m repro demo                        # run the paper's Example 1
    python -m repro query --n 50 --m 4 --k 3    # secure query on synthetic data
    python -m repro calibrate --key-size 512    # per-operation Paillier costs
    python -m repro project --figure 2a         # paper-scale projected series
    python -m repro inventory                   # list figures / bench targets

The CLI is a thin veneer over the library: each subcommand maps onto the same
public API the examples and the benchmark harness use, so it doubles as a
smoke test of the end-to-end system on any machine.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from random import Random
from typing import Sequence

from repro.analysis.calibration import Calibrator
from repro.analysis.reporting import format_table
from repro.core.system import SkNNSystem
from repro.db.datasets import (
    heart_disease_example_query,
    heart_disease_table,
    synthetic_uniform,
)
from repro.db.knn import LinearScanKNN, squared_euclidean

__all__ = ["main", "build_parser"]

#: Experiment inventory printed by ``repro inventory`` (mirrors DESIGN.md §4).
EXPERIMENT_INVENTORY: tuple[dict[str, str], ...] = (
    {"figure": "Table 1/2", "description": "heart-disease running example (k=2 -> t4, t5)",
     "bench": "tests/integration/test_paper_example.py"},
    {"figure": "2a", "description": "SkNNb vs n and m (k=5, K=512)",
     "bench": "benchmarks/bench_fig2a_sknnb_n_m.py"},
    {"figure": "2b", "description": "SkNNb vs n and m (k=5, K=1024)",
     "bench": "benchmarks/bench_fig2b_sknnb_keysize.py"},
    {"figure": "2c", "description": "SkNNb vs k (n=2000, m=6)",
     "bench": "benchmarks/bench_fig2c_sknnb_k.py"},
    {"figure": "2d", "description": "SkNNm vs k and l (K=512)",
     "bench": "benchmarks/bench_fig2d_sknnm_k_l.py"},
    {"figure": "2e", "description": "SkNNm vs k and l (K=1024)",
     "bench": "benchmarks/bench_fig2e_sknnm_keysize.py"},
    {"figure": "2f", "description": "SkNNb vs SkNNm (n=2000, m=6, l=6, K=512)",
     "bench": "benchmarks/bench_fig2f_basic_vs_secure.py"},
    {"figure": "3", "description": "serial vs parallel SkNNb (m=6, k=5, K=512)",
     "bench": "benchmarks/bench_fig3_parallel.py"},
    {"figure": "5.2", "description": "SMINn share and Bob's cost",
     "bench": "benchmarks/bench_section52_breakdown.py"},
    {"figure": "beyond-paper", "description": "offline/online split: warm "
     "precompute pools vs inline SkNN_b latency",
     "bench": "benchmarks/bench_online_latency.py"},
)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Secure k-nearest neighbor query over encrypted data "
                    "(Elmehdwi, Samanthula & Jiang, ICDE 2014).",
    )
    parser.add_argument(
        "--crypto-backend", choices=["auto", "python", "openssl"],
        default=None,
        help="bigint backend for all Paillier arithmetic.  Selection order: "
             "this flag, else the REPRO_CRYPTO_BACKEND environment variable, "
             "else auto.  auto = openssl (BN_mod_exp of the libcrypto the "
             "interpreter already maps, through ctypes; ~11x faster powers "
             "at K=512/1024) when the library loads, pure Python otherwise; "
             "an explicit openssl that cannot load is an error")
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser(
        "demo", help="run the paper's Example 1 on the heart-disease sample")
    demo.add_argument("--key-size", type=int, default=256,
                      help="Paillier key size in bits (default: 256)")
    demo.add_argument("--mode", choices=["basic", "secure"], default="secure",
                      help="protocol to run (default: secure)")

    query = subparsers.add_parser(
        "query", help="answer a kNN query over an encrypted synthetic table")
    query.add_argument("--n", type=int, default=30, help="number of records")
    query.add_argument("--m", type=int, default=3, help="number of attributes")
    query.add_argument("--k", type=int, default=3, help="neighbors to return")
    query.add_argument("--l", type=int, default=8,
                       help="distance domain bit length")
    query.add_argument("--key-size", type=int, default=256,
                       help="Paillier key size in bits")
    query.add_argument("--mode",
                       choices=["basic", "secure", "parallel", "sharded",
                                "distributed"],
                       default="basic",
                       help="protocol to run (distributed spawns a local "
                            "C1+C2 daemon pair and queries them over TCP)")
    query.add_argument("--connect-c1", metavar="HOST:PORT", default=None,
                       help="address of an already-running C1 daemon; with "
                            "--connect-c2, the command provisions the pair "
                            "and queries over TCP instead of simulating")
    query.add_argument("--connect-c2", metavar="HOST:PORT", default=None,
                       help="address of an already-running C2 daemon")
    query.add_argument("--precompute", type=int, default=0,
                       help="warm a precomputation engine sized for this many "
                            "queries before answering (0 disables); moves the "
                            "obfuscator/mask exponentiations off the online "
                            "path")
    query.add_argument("--seed", type=int, default=0, help="workload seed")
    query.add_argument("--retries", type=int, default=4,
                       help="max attempts per remote operation in connected/"
                            "distributed mode (1 disables retries)")
    query.add_argument("--request-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="bound on each remote request/reply round trip; "
                            "an unreachable daemon then fails fast with a "
                            "typed error instead of hanging (default: wait)")

    calibrate = subparsers.add_parser(
        "calibrate", help="measure Paillier per-operation costs on this machine")
    calibrate.add_argument("--key-size", type=int, action="append",
                           dest="key_sizes", default=None,
                           help="key size(s) to calibrate (repeatable; "
                                "default: 512 and 1024)")
    calibrate.add_argument("--samples", type=int, default=15,
                           help="operations timed per primitive")

    project = subparsers.add_parser(
        "project", help="print a paper-scale projected series for one figure")
    project.add_argument("--figure", required=True,
                         choices=["2a", "2b", "2c", "2d", "2e", "2f", "3"],
                         help="paper figure to project")
    project.add_argument("--samples", type=int, default=10,
                         help="calibration samples per primitive")

    serve = subparsers.add_parser(
        "serve", help="serve concurrent kNN queries over a sharded encrypted "
                      "table and verify every answer against the plaintext oracle")
    serve.add_argument("--n", type=int, default=48, help="number of records")
    serve.add_argument("--m", type=int, default=3, help="number of attributes")
    serve.add_argument("--k", type=int, default=2, help="neighbors per query")
    serve.add_argument("--l", type=int, default=9,
                       help="distance domain bit length")
    serve.add_argument("--key-size", type=int, default=256,
                       help="Paillier key size in bits")
    serve.add_argument("--shards", type=int, default=2,
                       help="number of C1 shards")
    serve.add_argument("--workers", type=int, default=2,
                       help="persistent worker pool size")
    serve.add_argument("--backend", choices=["process", "thread", "serial"],
                       default="process", help="worker pool backend")
    serve.add_argument("--batch-size", type=int, default=4,
                       help="max queries grouped into one scan pass")
    serve.add_argument("--clients", type=int, default=4,
                       help="concurrent Bob sessions")
    serve.add_argument("--queries", type=int, default=8,
                       help="total queries across all sessions")
    serve.add_argument("--pool-size", type=int, default=64,
                       help="per-session precomputed randomness pool size "
                            "for Bob's query encryptions, capped at 4*m "
                            "(0 disables)")
    serve.add_argument("--precompute", type=int, default=0,
                       help="size the sharded store's precomputation engine "
                            "for this many queries (0 disables); the server "
                            "refills it in idle scheduler slots")
    serve.add_argument("--seed", type=int, default=0, help="workload seed")

    party = subparsers.add_parser(
        "party", help="run one cloud party (C1 or C2) as a network daemon")
    party.add_argument("--role", choices=["c1", "c2"], required=True,
                       help="which cloud this process plays")
    party.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                       help="listen address (port 0 = ephemeral; "
                            "default: 127.0.0.1:0)")
    party.add_argument("--port-file", default=None,
                       help="write the bound 'host port' here once listening "
                            "(how supervisors discover ephemeral ports)")
    party.add_argument("--pool-cache", default=None,
                       help="persist warmed precompute pools to this file at "
                            "shutdown and reload them at startup, so a "
                            "restarted party starts hot")
    party.add_argument("--state-dir", default=None, metavar="DIR",
                       help="persist daemon state (C2 share mailbox, C1 "
                            "reply cache, provision manifest) under this "
                            "directory via crash-consistent journals, so a "
                            "killed-and-restarted party replays pending "
                            "deliveries and serves retried fetches without "
                            "re-provisioning (disabled by default)")
    party.add_argument("--log-level", default="info",
                       choices=["debug", "info", "warning", "error"],
                       help="daemon log verbosity (default: info)")
    party.add_argument("--metrics-listen", default=None, metavar="HOST:PORT",
                       help="serve Prometheus /metrics and JSON /stats on a "
                            "side HTTP listener (port 0 = ephemeral; "
                            "disabled by default)")
    party.add_argument("--slow-query-seconds", type=float, default=1.0,
                       help="log queries slower than this wall time as "
                            "structured warnings (default: 1.0; <=0 disables)")
    party.add_argument("--json-logs", action="store_true",
                       help="emit one JSON object per log line (trace-aware) "
                            "instead of the plain text format")
    party.add_argument("--io-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="bound on every mid-protocol read/write on the "
                            "C1<->C2 peer channel; a dead peer surfaces as a "
                            "typed retriable error instead of a hung query "
                            "(default: 120; <=0 disables)")
    party.add_argument("--profile", action="store_true",
                       help="arm an always-on ~100 Hz sampling profiler; "
                            "collapsed stacks are scrapeable at the metrics "
                            "listener's /profile endpoint and via "
                            "'repro stats --profile'")
    party.add_argument("--peer-connections", type=int, default=1,
                       metavar="N",
                       help="size of a C1 daemon's pool of persistent "
                            "multiplexed connections to C2; concurrent "
                            "queries pipeline across the pool (default: 1)")
    party.add_argument("--shard-index", type=int, default=None, metavar="I",
                       help="run this C1 daemon as shard I of a horizontally "
                            "partitioned table (holds one slice, answers "
                            "transport.scan from a coordinator)")
    party.add_argument("--shard-count", type=int, default=None, metavar="N",
                       help="total number of shard daemons in the deployment "
                            "(required with --shard-index)")

    stats = subparsers.add_parser(
        "stats", help="pretty-print a running daemon's live statistics")
    stats.add_argument("--connect", required=True, metavar="HOST:PORT",
                       help="control address of the daemon to inspect")
    stats.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                       help="refresh every N seconds until interrupted")
    stats.add_argument("--metrics", action="store_true",
                       help="also dump the raw Prometheus exposition text")
    stats.add_argument("--profile", type=float, default=None,
                       metavar="SECONDS",
                       help="capture N seconds of sampling-profiler stacks "
                            "from the daemon and print them collapsed "
                            "(flamegraph.pl input format)")

    bench = subparsers.add_parser(
        "bench", help="run the benchmark-history suite and its regression "
                      "gate (benchmarks/history/*.jsonl)")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_run = bench_sub.add_parser(
        "run", help="run registered benches and append provenance-stamped "
                    "records to the history")
    bench_run.add_argument("--quick", action="store_true",
                           help="smallest problem sizes (CI default)")
    bench_run.add_argument("--filter", default=None, metavar="NAME",
                           help="only benches whose name contains NAME")
    bench_run.add_argument("--history-dir", default="benchmarks/history",
                           help="history directory (default: "
                                "benchmarks/history)")
    bench_report = bench_sub.add_parser(
        "report", help="render ASCII trend reports from the history")
    bench_report.add_argument("--bench", default=None,
                              help="one benchmark (default: all)")
    bench_report.add_argument("--last", type=int, default=30,
                              help="runs shown per trend (default: 30)")
    bench_report.add_argument("--history-dir", default="benchmarks/history")
    bench_check = bench_sub.add_parser(
        "check", help="fail (exit 1) if the latest run of any benchmark "
                      "regressed beyond its median±MAD baseline")
    bench_check.add_argument("--bench", default=None,
                             help="one benchmark (default: all)")
    bench_check.add_argument("--history-dir", default="benchmarks/history")

    subparsers.add_parser(
        "inventory", help="list every reproduced table/figure and its bench target")

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _run_demo(args: argparse.Namespace) -> int:
    table = heart_disease_table(include_diagnosis=False)
    query = heart_disease_example_query()
    print("Heart-disease sample (Table 1), query of Example 1, k=2")
    system = SkNNSystem.setup(table, key_size=args.key_size, mode=args.mode,
                              rng=Random(2014))
    answer = system.query_with_report(list(query), 2)
    for rank, record in enumerate(answer.neighbors, start=1):
        print(f"  neighbor {rank}: {record}")
    matches = _matches_plaintext(table, query, 2, answer.neighbors)
    if answer.report is not None:
        print(f"cloud wall time: {answer.report.wall_time_seconds:.2f} s, "
              f"encryptions: {answer.report.stats.total_encryptions}, "
              f"decryptions: {answer.report.stats.total_decryptions}")
    return 0 if matches else 1


def _run_query(args: argparse.Namespace) -> int:
    table = synthetic_uniform(n_records=args.n, dimensions=args.m,
                              distance_bits=args.l, seed=args.seed)
    rng = Random(args.seed + 1)
    query = [rng.randint(0, max(a.maximum for a in table.schema))
             for _ in range(args.m)]
    if (args.connect_c1 is None) != (args.connect_c2 is None):
        print("--connect-c1 and --connect-c2 must be given together",
              file=sys.stderr)
        return 2
    if args.connect_c1 is not None:
        return _run_query_connected(args, table, query)
    print(f"{table.describe()}; query={query}, k={args.k}, mode={args.mode}"
          + (f", precompute={args.precompute}" if args.precompute else ""))
    with SkNNSystem.setup(table, key_size=args.key_size, mode=args.mode,
                          k_default=args.k, rng=Random(args.seed + 2),
                          precompute=args.precompute) as system:
        answer = system.query_with_report(query, args.k)
        engines = [engine for engine in (system.precompute_engine,
                                         system.decryptor_precompute_engine)
                   if engine is not None]
        if engines:
            offline = sum(e.offline_encryptions for e in engines)
            pooled = sum(e.pool_hit_total() for e in engines)
            print(f"precompute: {offline} offline exponentiations across "
                  f"{len(engines)} per-cloud engines, "
                  f"{pooled} pooled items consumed")
    for rank, record in enumerate(answer.neighbors, start=1):
        print(f"  neighbor {rank}: {record}")
    return 0 if _matches_plaintext(table, query, args.k,
                                   answer.neighbors) else 1


def _run_query_connected(args: argparse.Namespace, table, query) -> int:
    """Provision a running daemon pair and answer one query over TCP."""
    from repro.core.roles import DataOwner, QueryClient
    from repro.core.sknn_secure import check_query_domain
    from repro.resilience import RetryPolicy
    from repro.transport.client import RemoteCloud
    from repro.transport.daemon import parse_address

    protocol_mode = args.mode if args.mode in ("basic", "secure") else "secure"
    check_query_domain(table.schema, query)
    owner = DataOwner(table, key_size=args.key_size, rng=Random(args.seed + 2))
    client = QueryClient(owner.public_key, table.dimensions,
                         rng=Random(args.seed + 3))
    print(f"{table.describe()}; query={query}, k={args.k}, "
          f"protocol={protocol_mode}, C1={args.connect_c1}, "
          f"C2={args.connect_c2}")
    retry = (RetryPolicy(max_attempts=args.retries) if args.retries > 1
             else RetryPolicy.none())
    remote = RemoteCloud(parse_address(args.connect_c1),
                         parse_address(args.connect_c2),
                         retry=retry,
                         request_deadline=args.request_deadline,
                         rng=Random(args.seed + 5))
    try:
        remote.provision(owner.keypair, owner.encrypt_database(),
                         distance_bits=max(args.l,
                                           owner.distance_bit_length()),
                         seed=args.seed + 4,
                         precompute_queries=1 if args.precompute else 0)
        shares, report = remote.query(client.encrypt_query(query), args.k,
                                      mode=protocol_mode)
    finally:
        remote.close()
    neighbors = client.reconstruct(shares)
    for rank, record in enumerate(neighbors, start=1):
        print(f"  neighbor {rank}: {record}")
    if report is not None:
        ready = report.stats.extra.get("factors_ready")
        print(f"cloud wall time: {report.wall_time_seconds:.2f} s, "
              f"bytes on the wire: {report.stats.bytes_transferred}"
              + ("" if ready is None else
                 f", C1 factors ready when drawn: {int(ready)}"))
    return 0 if _matches_plaintext(table, query, args.k, neighbors) else 1


def _matches_plaintext(table, query, k: int, neighbors) -> bool:
    """Print and return whether ``neighbors`` answers ``(query, k)``.

    SkNN_m breaks distance ties at random, so on a tie at the k-th
    distance other records, or another order, are as right as the plaintext
    oracle's.  The rule for every mode: the oracle's sorted distances, from
    records of the table, none returned more often than the table holds it.
    """
    unused = Counter(tuple(record.values) for record in table)
    unused.subtract(tuple(record) for record in neighbors)
    matches = min(unused.values(), default=0) >= 0 and sorted(
        squared_euclidean(record, query) for record in neighbors) == [
        r.squared_distance for r in LinearScanKNN(table).query(query, k)]
    print(f"matches plaintext answer: {matches}")
    return matches


def _build_party(args: argparse.Namespace):
    """The role daemon ``repro party`` asks for (not yet listening)."""
    from repro.exceptions import ConfigurationError
    from repro.transport.daemon import (
        DEFAULT_IO_DEADLINE,
        C1Daemon,
        C2Daemon,
        parse_address,
    )

    host, port = parse_address(args.listen)
    slow = args.slow_query_seconds if args.slow_query_seconds > 0 else None
    if args.io_deadline is None:
        io_deadline: float | None = DEFAULT_IO_DEADLINE
    else:
        io_deadline = args.io_deadline if args.io_deadline > 0 else None
    options = dict(host=host, port=port, port_file=args.port_file,
                   pool_cache=args.pool_cache,
                   metrics_listen=args.metrics_listen,
                   slow_query_seconds=slow, io_deadline=io_deadline,
                   state_dir=args.state_dir, profile=args.profile)
    if args.role == "c1":
        options.update(peer_connections=args.peer_connections,
                       shard_index=args.shard_index,
                       shard_count=args.shard_count)
    elif args.shard_index is not None or args.shard_count is not None:
        raise ConfigurationError("only C1 daemons can be shards")
    return {"c1": C1Daemon, "c2": C2Daemon}[args.role](**options)


def _run_party(args: argparse.Namespace) -> int:
    """Run one cloud party daemon until SIGTERM/SIGINT."""
    import logging

    level = getattr(logging, args.log_level.upper())
    if args.json_logs:
        from repro.telemetry import configure_json_logging

        logging.basicConfig(level=level)
        configure_json_logging(level)
    else:
        logging.basicConfig(
            level=level,
            format="%(asctime)s %(name)s %(levelname)s %(message)s")
    _build_party(args).serve_forever()
    return 0


def _render_daemon_stats(stats: dict) -> str:
    """Human-readable rendering of one daemon's ``transport.stats`` payload."""
    lines = [f"role: {stats.get('role', '?')}  "
             f"provisioned: {stats.get('provisioned', False)}  "
             f"pending shares: {stats.get('pending_shares', 0)}  "
             f"inflight queries: {stats.get('inflight_queries', 0)}"]
    shard = stats.get("shard")
    if shard:
        lines.append(f"shard: {shard['index']}/{shard['count']} "
                     f"(records from global index {shard['start_index']})")
    if stats.get("shards"):
        lines.append(f"coordinating shards: {', '.join(stats['shards'])}")
    if stats.get("metrics_address"):
        lines.append(f"metrics: {stats['metrics_address']}/metrics")
    resilience = stats.get("resilience")
    if resilience:
        deadline = resilience.get("io_deadline")
        lines.append(
            f"resilience: uptime={resilience.get('uptime_seconds', 0):.0f}s  "
            f"io-deadline={'off' if deadline is None else f'{deadline:g}s'}  "
            f"reply-cache={resilience.get('reply_cache_entries', 0)}  "
            f"peer-connected={resilience.get('peer_connected', False)}")
        events = resilience.get("events") or {}
        for family, total in sorted(events.items()):
            lines.append(f"  {family}: {total:g}")
    traffic = stats.get("traffic")
    if traffic:
        lines.append(f"peer link: {traffic['messages']} messages, "
                     f"{traffic['ciphertexts']} ciphertexts, "
                     f"{traffic['bytes_transferred']} bytes")
    connections = stats.get("peer_connections")
    if connections:
        target = stats.get("peer_connections_target")
        lines.append("peer connections"
                     + (f" (target {target})" if target else "") + ":")
        rows = [{"conn": entry["index"],
                 "alive": entry["alive"],
                 "contexts": entry["active_contexts"],
                 "messages": entry["messages"],
                 "bytes": entry["bytes_transferred"]}
                for entry in connections]
        lines.append(format_table(rows).rstrip("\n"))
    by_tag = stats.get("traffic_by_tag")
    if by_tag:
        rows = [{"tag": tag, "messages": counts["messages"],
                 "bytes": counts["bytes"]}
                for tag, counts in sorted(
                    by_tag.items(), key=lambda item: -item[1]["bytes"])[:12]]
        lines.append(format_table(rows).rstrip("\n"))
    engine = stats.get("engine")
    if engine:
        remaining = engine.get("remaining", {})
        pools = ", ".join(f"{pool}={count}"
                          for pool, count in sorted(remaining.items()))
        lines.append("precompute pool: "
                     f"hits={engine.get('obfuscator_hits', 0)} "
                     f"misses={engine.get('obfuscator_misses', 0)}"
                     + (f"  [{pools}]" if pools else ""))
    slow = stats.get("slow_queries")
    if slow:
        lines.append(f"slow queries (>{slow['threshold_seconds']}s): "
                     f"{slow['total_slow']} total")
        for entry in slow.get("recent", [])[-3:]:
            lines.append(f"  {entry.get('protocol', '?')}: "
                         f"{entry.get('wall_time_seconds', 0):.3f}s "
                         f"trace={entry.get('trace_id', '-')[:16]}")
    profiler = stats.get("profiler")
    if profiler:
        lines.append(f"profiler: running={profiler.get('running', False)}  "
                     f"interval={profiler.get('interval', 0):g}s  "
                     f"samples={profiler.get('samples', 0)}")
    return "\n".join(lines)


def _render_histogram_quantiles(snapshot: dict) -> str:
    """p50/p95/p99 table for every histogram family in a registry snapshot."""
    rows = []
    for name, family in sorted(snapshot.items()):
        if family.get("type") != "histogram":
            continue
        for labels, values in sorted(family.get("values", {}).items()):
            if not values.get("count"):
                continue
            rows.append({
                "histogram": f"{name}{{{labels}}}" if labels else name,
                "count": values["count"],
                "p50": f"{values.get('p50', 0):.4g}",
                "p95": f"{values.get('p95', 0):.4g}",
                "p99": f"{values.get('p99', 0):.4g}",
            })
    if not rows:
        return ""
    return format_table(rows).rstrip("\n")


def _run_stats(args: argparse.Namespace) -> int:
    """Inspect a running party daemon over its control connection."""
    import time

    from repro.transport.client import DaemonClient
    from repro.transport.daemon import parse_address
    from repro.transport.wire import WireCodec

    client = DaemonClient(parse_address(args.connect), WireCodec())
    try:
        if args.profile is not None:
            result = client.request("transport.profile",
                                    {"seconds": args.profile})
            if not result.get("armed"):
                print("note: daemon has no armed profiler (--profile); "
                      "sampled with an ephemeral one", file=sys.stderr)
            print(result.get("collapsed", ""), end="")
            return 0
        while True:
            stats = client.request("transport.stats", None)
            print(_render_daemon_stats(stats))
            metrics = client.request("transport.metrics", None)
            quantiles = _render_histogram_quantiles(
                metrics.get("snapshot") or {})
            if quantiles:
                print(quantiles)
            if args.metrics:
                print(metrics.get("prometheus", ""), end="")
            if args.watch is None:
                return 0
            print()
            time.sleep(args.watch)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        return 0
    finally:
        client.close()


def _run_calibrate(args: argparse.Namespace) -> int:
    key_sizes = args.key_sizes or [512, 1024]
    calibrator = Calibrator(samples=args.samples)
    rows = []
    for key_size in key_sizes:
        timings = calibrator.timings_for(key_size)
        rows.append({
            "key_size": key_size,
            "encrypt (ms)": timings.encryption_seconds * 1000,
            "decrypt (ms)": timings.decryption_seconds * 1000,
            "exponentiation (ms)": timings.exponentiation_seconds * 1000,
            "DGK encrypt (ms)": timings.dgk_encryption_seconds * 1000,
            "DGK zero test (ms)": timings.dgk_decryption_seconds * 1000,
            "DGK power (ms)": timings.dgk_exponentiation_seconds * 1000,
        })
    print(format_table(rows), end="")
    if len(key_sizes) >= 2:
        slowdown = calibrator.key_size_slowdown(key_sizes[0], key_sizes[-1])
        print(f"slowdown {key_sizes[0]} -> {key_sizes[-1]} bits: {slowdown:.2f}x")
    return 0


def _run_project(args: argparse.Namespace) -> int:
    # Imported lazily: calibration-dependent and only needed by this command.
    from repro.analysis.projections import (
        figure_2a_series,
        figure_2c_series,
        figure_2d_series,
        figure_2f_series,
        figure_3_series,
    )

    calibrator = Calibrator(samples=args.samples)
    n_values = [2000, 4000, 6000, 8000, 10000]
    k_values = [5, 10, 15, 20, 25]
    if args.figure == "2a":
        series = figure_2a_series(calibrator, 512, n_values, [6, 12, 18])
    elif args.figure == "2b":
        series = figure_2a_series(calibrator, 1024, n_values, [6, 12, 18])
    elif args.figure == "2c":
        series = figure_2c_series(calibrator, [512, 1024], k_values)
    elif args.figure == "2d":
        series = figure_2d_series(calibrator, 512, k_values, [6, 12])
    elif args.figure == "2e":
        series = figure_2d_series(calibrator, 1024, k_values, [6, 12])
    elif args.figure == "2f":
        series = figure_2f_series(calibrator, 512, k_values)
    else:
        series = figure_3_series(calibrator, 512, n_values)
    print(series.to_text(), end="")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import threading
    import time

    table = synthetic_uniform(n_records=args.n, dimensions=args.m,
                              distance_bits=args.l, seed=args.seed)
    oracle = LinearScanKNN(table)
    workload_rng = Random(args.seed + 1)
    max_value = max(a.maximum for a in table.schema)
    queries = [[workload_rng.randint(0, max_value) for _ in range(args.m)]
               for _ in range(args.queries)]

    print(f"{table.describe()}; {args.shards} shards, {args.workers} "
          f"{args.backend} workers, batch size {args.batch_size}, "
          f"{args.clients} concurrent clients, {args.queries} queries")
    system = SkNNSystem.setup(table, key_size=args.key_size, mode="sharded",
                              shards=args.shards, workers=args.workers,
                              parallel_backend=args.backend,
                              rng=Random(args.seed + 2))
    server = system.serve(batch_size=args.batch_size,
                          session_pool_size=min(args.pool_size, 4 * args.m),
                          precompute=args.precompute)

    answers: dict[int, object] = {}

    def run_client(client_index: int) -> None:
        session = server.open_session(f"client-{client_index}")
        for query_index in range(client_index, args.queries, args.clients):
            answers[query_index] = session.query(queries[query_index], args.k,
                                                 timeout=120)

    started = time.perf_counter()
    with server:
        threads = [threading.Thread(target=run_client, args=(index,))
                   for index in range(args.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = time.perf_counter() - started

    matches = all(
        answers[index].neighbors
        == [r.record.values for r in oracle.query(queries[index], args.k)]
        for index in range(args.queries)
    )
    stats = server.stats
    print(format_table([{
        "queries": stats.queries_served,
        "batches": stats.batches_served,
        "mean batch": stats.mean_batch_size,
        "wall (s)": elapsed,
        "queries/s": stats.queries_served / elapsed if elapsed else 0.0,
    }]), end="")
    print(f"all answers match plaintext oracle: {matches}")
    system.close()
    return 0 if matches else 1


def _run_bench(args: argparse.Namespace) -> int:
    """``repro bench run|report|check`` — the benchmark-history workflow."""
    from repro.bench import (
        REGISTRY,
        BenchHistory,
        check_history,
        render_trend,
        run_suite,
    )

    history = BenchHistory(args.history_dir)

    if args.bench_command == "run":
        names = sorted(REGISTRY)
        if args.filter:
            names = [name for name in names if args.filter in name]
            if not names:
                print(f"no bench matches {args.filter!r}; available: "
                      f"{', '.join(sorted(REGISTRY))}", file=sys.stderr)
                return 2
        for record in run_suite(names, quick=args.quick):
            path = history.append(record["bench"], record)
            metrics = record["metrics"]
            timing = metrics.get("query_s", metrics.get("encrypt_batch_s"))
            print(f"{record['bench']}: "
                  + (f"{timing:.4f}s, " if timing is not None else "")
                  + f"{len(metrics)} metrics -> {path}")
        return 0

    names = [args.bench] if args.bench else history.names()
    if not names:
        print(f"no history under {history.root} — run 'repro bench run' "
              "first", file=sys.stderr)
        return 2

    if args.bench_command == "report":
        for name in names:
            print(render_trend(name, history.load(name), last=args.last),
                  end="")
        return 0

    # check: exit nonzero iff any benchmark's latest run regressed.
    failures = 0
    for name in names:
        records = history.load(name)
        findings = check_history(name, records)
        if findings:
            failures += len(findings)
            for finding in findings:
                print(f"REGRESSION: {finding.describe()}")
        else:
            print(f"ok: {name} ({len(records)} runs)")
    if failures:
        print(f"{failures} regression(s) detected", file=sys.stderr)
        return 1
    return 0


def _run_inventory(_: argparse.Namespace) -> int:
    print(format_table(list(EXPERIMENT_INVENTORY)), end="")
    return 0


_HANDLERS = {
    "demo": _run_demo,
    "query": _run_query,
    "calibrate": _run_calibrate,
    "project": _run_project,
    "serve": _run_serve,
    "party": _run_party,
    "stats": _run_stats,
    "bench": _run_bench,
    "inventory": _run_inventory,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.crypto_backend is not None:
        from repro.crypto.backend import set_backend

        set_backend(args.crypto_backend)
    handler = _HANDLERS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
