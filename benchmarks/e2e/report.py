"""Results files: what BENCHMARK.json declares, provenance, and ``--compare``.

``BENCHMARK.json`` at the repository root is the one place where metric
names, units, directions and bounds are written down; this module reads them
from there, so the runner, the comparison and the driver can never disagree.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.bench.provenance import provenance_block

__all__ = ["ROOT", "RESULTS_DIR", "load_spec", "provenance", "typed_metrics",
           "format_metrics", "compare", "INCOMPARABLE"]

ROOT = Path(__file__).resolve().parents[2]
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: ``compare`` exit code when the two files must not be compared at all
INCOMPARABLE = 2


def load_spec() -> dict[str, Any]:
    """The benchmark's declaration (``BENCHMARK.json``)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def provenance(seed: int, key_sizes: list[int]) -> dict[str, Any]:
    """Where, on what and from which commit these numbers were measured.

    Core counts are recorded twice: what the machine has and what this
    process may use.  Numbers from boxes that differ in either are not
    comparable, and :func:`compare` refuses them.
    """
    block = provenance_block(cwd=str(ROOT))
    del block["key_size"]
    block.update({
        "key_sizes": key_sizes,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "loadavg_1min_at_start": os.getloadavg()[0],
    })
    return block


def typed_metrics(values: dict[str, float], declared: list[dict[str, Any]]
                  ) -> dict[str, dict[str, Any]]:
    """``{name: {"value", "unit"}}`` in declaration order.

    Raises when the run produced a different set of names than
    BENCHMARK.json declares: a metric nobody declared cannot be gated, and
    a declared one that is missing would pass silently.
    """
    names = [entry["name"] for entry in declared]
    if set(names) != set(values):
        raise RuntimeError(
            "metrics do not match BENCHMARK.json: missing "
            f"{sorted(set(names) - set(values))}, undeclared "
            f"{sorted(set(values) - set(names))}")
    return {entry["name"]: {"value": values[entry["name"]],
                            "unit": entry["unit"]} for entry in declared}


def format_metrics(workload: str, metrics: dict[str, dict[str, Any]]) -> str:
    """One ``workload  metric  value unit`` line per metric."""
    width = max(len(name) for name in metrics)
    return "\n".join(
        f"{workload}  {name:<{width}}  {entry['value']:.6g} {entry['unit']}"
        for name, entry in metrics.items())


def compare(path_a: Path, path_b: Path) -> int:
    """Print B against A per workload × end-to-end metric; 0 when every
    metric of B is within its bound of A, 1 when any is outside,
    :data:`INCOMPARABLE` when the files must not be compared."""
    a = json.loads(path_a.read_text(encoding="utf-8"))
    b = json.loads(path_b.read_text(encoding="utf-8"))
    where_a, where_b = a["provenance"], b["provenance"]
    reasons = [f"{key} differs: {where_a[key]} vs {where_b[key]}"
               for key in ("cpu_count", "cpu_affinity", "crypto_backend")
               if where_a[key] != where_b[key]]
    reasons += [f"{path} is a smoke run" for path, doc in
                ((path_a, a), (path_b, b)) if doc["smoke"]]
    if a["seconds"] != b["seconds"]:
        reasons.append(f"run length differs: {a['seconds']} vs {b['seconds']}")
    if reasons:
        print("incomparable: " + "; ".join(reasons))
        return INCOMPARABLE

    outside = 0
    declared = load_spec()["end_to_end"]
    print(f"{'workload':<20}{'metric':<24}{'A':>12}{'B':>12}"
          f"{'B worse by':>12}{'bound':>8}")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        run_a, run_b = a["workloads"][name], b["workloads"][name]
        for entry in declared:
            metric = entry["name"]
            if not (metric in run_a["metrics"] and metric in run_b["metrics"]):
                continue
            value_a = run_a["metrics"][metric]["value"]
            value_b = run_b["metrics"][metric]["value"]
            worse = (value_b - value_a) / value_a
            if entry["better"] == "higher":
                worse = -worse
            verdict = "" if worse <= entry["bound"] else "  OUTSIDE"
            outside += bool(verdict)
            print(f"{name:<20}{metric:<24}{value_a:>12.6g}{value_b:>12.6g}"
                  f"{worse:>+12.2%}{entry['bound']:>8.0%}{verdict}")
        if run_b["failed"] > run_a["failed"]:
            outside += 1
            print(f"{name:<20}{'failed':<24}{run_a['failed']:>12}"
                  f"{run_b['failed']:>12}  OUTSIDE (bound is 0)")
    return 1 if outside else 0
