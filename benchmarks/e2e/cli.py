"""Command line of the benchmark.

``run.py [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]``
runs one workload (or all four), checks every answer against the plaintext
oracle, prints every metric by name with its unit, writes a results file
with provenance, and ends its output with one JSON object::

    {"correct": true, "attempted": 60, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones and with ``--trace 1``
the per-layer ones, as BENCHMARK.json lists them.  ``--compare A.json
B.json`` holds one results file against another instead.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

from benchmarks.e2e import report
from benchmarks.e2e.drills import run_drills
from benchmarks.e2e.loadgen import WindowResult, run_window
from benchmarks.e2e.metrics import end_to_end, per_layer
from benchmarks.e2e.workloads import WORKLOADS, Workload, smoke

__all__ = ["main", "run_one"]


def run_one(workload: Workload, seed: int, seconds: float, trace: bool,
            spec: dict[str, Any], out_dir: Path) -> dict[str, Any]:
    """Run one workload; return its block of the results file."""
    result = run_window(workload, seed, seconds, trace)
    failed = sum(not sample.correct for sample in result.samples)
    problems = _hygiene_problems(result)
    if trace:
        values = per_layer(result, run_drills(workload, result.keypair, seed))
        metrics = report.typed_metrics(values, spec["per_layer"])
        # Span self times of a query against the latency its client
        # measured around it: what the spans leave unexplained.
        latency_s = {sample.query_id: sample.latency_s
                     for sample in result.samples}
        coverage = [entry["self_sum_s"] / latency_s[query]
                    for query, entry in result.tracer.per_query().items()
                    if entry["root_s"]]
        notes: dict[str, Any] = {
            "span_self_time_coverage_min": min(coverage, default=0.0)}
        result.tracer.write(out_dir / f"trace_{workload.name}.json",
                            workload=workload.name, seed=seed)
    else:
        values, notes = end_to_end(result)
        metrics = report.typed_metrics(values, spec["end_to_end"])
    notes["problems"] = problems
    notes["errors"] = [sample.error or f"wrong answer to {sample.query}"
                       for sample in result.samples if not sample.correct][:5]
    return {"correct": failed == 0 and not problems,
            "attempted": len(result.samples), "failed": failed,
            "metrics": metrics, "notes": notes}


def _hygiene_problems(result: WindowResult) -> list[str]:
    """What voids a run even when every answer was right."""
    problems = []
    if result.leaked_processes:
        problems.append(
            f"descendant processes still alive: {result.leaked_processes}")
    if result.retries:
        problems.append(
            f"{result.retries:g} retries/reconnects during the window")
    return problems


def main(argv: list[str] | None = None) -> int:
    spec = report.load_spec()
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run only this workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the table and the queries (default 1)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="traced run: per-layer metrics, spans, drills")
    parser.add_argument("--out", type=Path, default=report.RESULTS_DIR,
                        help="directory for results and span files")
    parser.add_argument("--smoke", action="store_true",
                        help="K=128 and two queries per client; the output "
                             "is flagged and never comparable")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"),
                        help="hold B against A; exit 1 when any end-to-end "
                             "metric is outside its bound")
    args = parser.parse_args(argv)
    if args.compare:
        return report.compare(*args.compare)

    chosen = [WORKLOADS[args.workload]] if args.workload else list(
        WORKLOADS.values())
    if args.smoke:
        chosen = [smoke(workload) for workload in chosen]
    document = {
        "provenance": report.provenance(
            args.seed, sorted({w.key_size for w in chosen})),
        "smoke": args.smoke, "trace": args.trace, "seed": args.seed,
        "seconds": args.seconds, "workloads": {},
    }
    for workload in chosen:
        block = run_one(workload, args.seed, args.seconds, bool(args.trace),
                        spec, args.out)
        document["workloads"][workload.name] = block
        print(report.format_metrics(workload.name, block["metrics"]))
        print(f"{workload.name}  attempted {block['attempted']}, "
              f"failed {block['failed']}, correct {block['correct']}"
              + "".join(f"\n{workload.name}  ! {problem}"
                        for problem in block["notes"]["problems"]
                        + block["notes"]["errors"]), flush=True)

    args.out.mkdir(parents=True, exist_ok=True)
    name = (f"{'traced' if args.trace else 'untraced'}"
            f"_{args.workload or 'all'}{'_smoke' if args.smoke else ''}.json")
    (args.out / name).write_text(json.dumps(document, indent=1) + "\n",
                                 encoding="utf-8")

    blocks = list(document["workloads"].values())
    summary: dict[str, Any] = {
        "correct": all(block["correct"] for block in blocks),
        "attempted": sum(block["attempted"] for block in blocks),
        "failed": sum(block["failed"] for block in blocks),
    }
    if len(blocks) == 1:
        summary["metrics"] = blocks[0]["metrics"]
    else:
        summary["metrics"] = {
            f"{workload}.{metric}": entry
            for workload, block in document["workloads"].items()
            for metric, entry in block["metrics"].items()}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1
