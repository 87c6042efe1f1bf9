"""Append-only benchmark history with noise-aware regression detection.

One JSONL file per benchmark under ``benchmarks/history/``; every line is a
record ``{"bench", "provenance", "params", "metrics", ...}``.  Appending is
the only write operation — the trajectory is never rewritten, so a `git log`
of the file is the performance history of the repo.

Regression semantics (:func:`check_history`): the latest record's metrics
are compared against a rolling baseline — the median of the same metric
over the last ``window`` *comparable* prior runs (same crypto backend, key
size and round split).  A metric regresses when it lands beyond

    ``median + max(k · 1.4826 · MAD, rel_slack · |median|, abs_floor)``

(the direction flips for higher-is-better metrics such as throughputs and
speedups).  The MAD term adapts the gate to each metric's observed noise;
the relative-slack term keeps near-deterministic metrics (operation counts
have MAD 0) from flagging on trivial jitter; the absolute floor ignores
micro-jitter on sub-millisecond timings.  Fewer than ``min_history``
comparable priors means no verdict — the gate never blocks a young
trajectory.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "BenchHistory",
    "RegressionFinding",
    "check_history",
    "numeric_leaves",
    "render_trend",
]

#: metric-name fragments whose values are better when *larger*.
HIGHER_IS_BETTER = ("per_second", "qps", "speedup", "throughput")

#: consistency with a normal distribution: sigma ~= 1.4826 * MAD.
MAD_SCALE = 1.4826

SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def numeric_leaves(mapping: Mapping[str, Any] | None,
                   prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts to ``{"a.b": value}`` keeping numeric leaves."""
    out: dict[str, float] = {}
    if not mapping:
        return out
    for key, value in mapping.items():
        path = f"{prefix}{key}"
        if isinstance(value, Mapping):
            out.update(numeric_leaves(value, prefix=f"{path}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            out[path] = float(value)
    return out


def higher_is_better(metric: str) -> bool:
    leaf = metric.rsplit(".", 1)[-1]
    return any(fragment in leaf for fragment in HIGHER_IS_BETTER)


@dataclass
class RegressionFinding:
    """One metric of one benchmark that crossed its baseline gate."""

    bench: str
    metric: str
    value: float
    baseline: float
    threshold: float
    history: int

    def describe(self) -> str:
        direction = "below" if higher_is_better(self.metric) else "above"
        return (f"{self.bench}:{self.metric} = {self.value:g} is {direction} "
                f"the gate {self.threshold:g} (baseline median "
                f"{self.baseline:g} over {self.history} runs)")


class BenchHistory:
    """The ``benchmarks/history/`` directory of JSONL trajectories."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, bench: str) -> Path:
        safe = "".join(ch if ch.isalnum() or ch in "-_." else "_"
                       for ch in bench)
        return self.root / f"{safe}.jsonl"

    def names(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.jsonl"))

    def append(self, bench: str, record: Mapping[str, Any]) -> Path:
        path = self.path_for(bench)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        return path

    def load(self, bench: str) -> list[dict[str, Any]]:
        path = self.path_for(bench)
        if not path.exists():
            return []
        records: list[dict[str, Any]] = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn append must not poison the whole file
            if isinstance(record, dict):
                records.append(record)
        return records


def _comparable(candidate: Mapping[str, Any],
                record: Mapping[str, Any]) -> bool:
    """Same crypto backend, key size and round split (the query benches
    stamp the rule their batched rounds were framed under) — otherwise
    baselines mix regimes."""
    mine = candidate.get("provenance") or {}
    theirs = record.get("provenance") or {}
    return all(mine.get(key) == theirs.get(key)
               for key in ("crypto_backend", "key_size", "round_split"))


def check_history(bench: str, records: Sequence[Mapping[str, Any]],
                  window: int = 20, min_history: int = 3,
                  mad_k: float = 4.0, rel_slack: float = 0.5,
                  abs_floor: float = 1e-4) -> list[RegressionFinding]:
    """Check the latest record of one trajectory against its baseline."""
    if len(records) < 2:
        return []
    candidate = records[-1]
    metrics = numeric_leaves(candidate.get("metrics"))
    priors = [record for record in records[:-1]
              if _comparable(candidate, record)][-window:]
    findings: list[RegressionFinding] = []
    for metric, value in sorted(metrics.items()):
        history = [numeric_leaves(record.get("metrics")).get(metric)
                   for record in priors]
        history = [sample for sample in history if sample is not None]
        if len(history) < min_history:
            continue
        baseline = statistics.median(history)
        mad = statistics.median(abs(sample - baseline) for sample in history)
        slack = max(mad_k * MAD_SCALE * mad, rel_slack * abs(baseline),
                    abs_floor)
        if higher_is_better(metric):
            threshold = baseline - slack
            regressed = value < threshold
        else:
            threshold = baseline + slack
            regressed = value > threshold
        if regressed:
            findings.append(RegressionFinding(
                bench=bench, metric=metric, value=value, baseline=baseline,
                threshold=threshold, history=len(history)))
    return findings


def _sparkline(values: Sequence[float]) -> str:
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return SPARK_BLOCKS[0] * len(values)
    scale = (len(SPARK_BLOCKS) - 1) / (high - low)
    return "".join(SPARK_BLOCKS[int((value - low) * scale)]
                   for value in values)


def render_trend(bench: str, records: Sequence[Mapping[str, Any]],
                 metrics: Iterable[str] | None = None,
                 last: int = 30) -> str:
    """ASCII trend report for one benchmark's trajectory."""
    if not records:
        return f"{bench}: (no history)\n"
    tail = list(records)[-last:]
    wanted = set(metrics) if metrics else None
    names: list[str] = []
    for record in tail:
        for name in numeric_leaves(record.get("metrics")):
            if name not in names and (wanted is None or name in wanted):
                names.append(name)
    lines = [f"{bench} — {len(records)} runs"
             + (f" (showing last {len(tail)})" if len(records) > len(tail)
                else "")]
    for name in names:
        series = [numeric_leaves(record.get("metrics")).get(name)
                  for record in tail]
        series = [sample for sample in series if sample is not None]
        if not series:
            continue
        lines.append(
            f"  {name:<36} {_sparkline(series)}  "
            f"min={min(series):g} median={statistics.median(series):g} "
            f"last={series[-1]:g}")
    shas = [(record.get("provenance") or {}).get("git_sha", "?")
            for record in tail]
    if shas:
        lines.append(f"  commits: {shas[0]} … {shas[-1]}")
    return "\n".join(lines) + "\n"
