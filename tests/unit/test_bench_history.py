"""Unit tests for the benchmark-history store, regression gate and CLI.

The regression semantics under test: the latest record is compared against
the median of comparable prior runs; the gate is ``median + max(k·1.4826·
MAD, rel_slack·|median|, abs_floor)``, flipped for higher-is-better
metrics.  The CLI tests drive ``repro bench run|report|check`` in-process,
including the acceptance scenario — a clean trajectory passes, an injected
synthetic regression fails the check with a nonzero exit code.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BenchHistory,
    check_history,
    numeric_leaves,
    provenance_block,
    render_trend,
)
from repro.bench.history import higher_is_better
from repro.cli import main


def record(value: float, metric: str = "query_s", backend: str = "python",
           key_size: int = 256, **extra_metrics) -> dict:
    metrics = {metric: value}
    metrics.update(extra_metrics)
    return {
        "bench": "demo",
        "provenance": {"git_sha": "abc", "crypto_backend": backend,
                       "key_size": key_size, "python": "3.11"},
        "params": {},
        "metrics": metrics,
    }


class TestNumericLeaves:
    def test_flattens_nested_and_drops_non_numeric(self):
        leaves = numeric_leaves({
            "a": 1, "b": 2.5, "flag": True, "name": "x",
            "nested": {"x": 3, "deeper": {"y": 4}},
        })
        assert leaves == {"a": 1.0, "b": 2.5, "nested.x": 3.0,
                          "nested.deeper.y": 4.0}

    def test_empty_and_none(self):
        assert numeric_leaves(None) == {}
        assert numeric_leaves({}) == {}


class TestHistoryStore:
    def test_append_load_roundtrip(self, tmp_path):
        history = BenchHistory(tmp_path / "hist")
        history.append("demo", record(1.0))
        history.append("demo", record(2.0))
        loaded = history.load("demo")
        assert [r["metrics"]["query_s"] for r in loaded] == [1.0, 2.0]
        assert history.names() == ["demo"]
        assert history.load("missing") == []

    def test_torn_append_does_not_poison_the_file(self, tmp_path):
        history = BenchHistory(tmp_path)
        path = history.append("demo", record(1.0))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"bench": "demo", "metr')  # simulated crash
        assert len(history.load("demo")) == 1

    def test_bench_names_are_sanitized_into_filenames(self, tmp_path):
        history = BenchHistory(tmp_path)
        path = history.append("a/b c", record(1.0))
        assert path.name == "a_b_c.jsonl"


class TestRegressionGate:
    def test_stable_trajectory_passes(self):
        records = [record(1.0 + 0.01 * i) for i in range(6)]
        assert check_history("demo", records) == []

    def test_injected_regression_fails(self):
        records = [record(1.0), record(1.02), record(0.98), record(10.0)]
        findings = check_history("demo", records)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.metric == "query_s" and finding.value == 10.0
        assert finding.baseline == pytest.approx(1.0)
        assert "above the gate" in finding.describe()

    def test_higher_is_better_direction(self):
        assert higher_is_better("encrypt_per_second")
        assert higher_is_better("phase.scan.throughput")
        assert not higher_is_better("query_s")
        records = [record(1000.0, metric="ops_per_second") for _ in range(4)]
        records.append(record(100.0, metric="ops_per_second"))
        findings = check_history("demo", records)
        assert len(findings) == 1
        assert "below the gate" in findings[0].describe()
        # A big *improvement* never fails.
        records[-1] = record(9000.0, metric="ops_per_second")
        assert check_history("demo", records) == []

    def test_min_history_gate(self):
        records = [record(1.0), record(1.0), record(50.0)]
        assert check_history("demo", records, min_history=3) == []
        records.insert(0, record(1.0))
        assert len(check_history("demo", records, min_history=3)) == 1

    def test_mad_widens_the_gate_for_noisy_metrics(self):
        noisy = [record(v) for v in (1.0, 1.6, 0.7, 1.4, 0.9, 1.5)]
        # 2.2 is ~2x the median but within the MAD-scaled band.
        assert check_history("demo", noisy + [record(2.2)]) == []
        assert len(check_history("demo", noisy + [record(9.0)])) == 1

    def test_deterministic_metrics_use_relative_slack(self):
        counts = [record(1.0, encryptions=650) for _ in range(5)]
        # MAD is zero; a 50%+ jump in a deterministic counter must flag.
        bumped = record(1.0, encryptions=1200)
        findings = check_history("demo", counts + [bumped])
        assert [f.metric for f in findings] == ["encryptions"]

    def test_incomparable_runs_are_excluded_from_the_baseline(self):
        slow_backend = [record(10.0, backend="python") for _ in range(5)]
        fast = [record(1.0, backend="openssl") for _ in range(4)]
        # The openssl candidate is judged only against openssl priors — the
        # python runs' 10x slower baseline neither masks nor trips it.
        assert check_history("demo", slow_backend + fast) == []
        regressed = record(5.0, backend="openssl")
        findings = check_history("demo", slow_backend + fast + [regressed])
        assert len(findings) == 1

    def test_rows_framed_under_another_round_split_are_incomparable(self):
        """A query's ``messages`` follow the split rule of its batched
        rounds; rows stamped with another rule — or none, as every row
        recorded before there was one — are another regime."""
        unstamped = [record(1.0, messages=51) for _ in range(5)]
        stamped = record(1.0, messages=85)
        stamped["provenance"]["round_split"] = 4
        assert check_history("demo", unstamped + [stamped]) == []
        peers = [dict(stamped) for _ in range(4)]
        doubled = record(1.0, messages=170)
        doubled["provenance"]["round_split"] = 4
        findings = check_history("demo", unstamped + peers + [doubled])
        assert [f.metric for f in findings] == ["messages"]

    def test_fewer_than_two_records_no_verdict(self):
        assert check_history("demo", []) == []
        assert check_history("demo", [record(1.0)]) == []


class TestTrendReport:
    def test_render_trend_contains_sparkline_and_stats(self):
        records = [record(float(v)) for v in (1, 2, 3, 4)]
        text = render_trend("demo", records)
        assert "demo — 4 runs" in text
        assert "query_s" in text and "min=1" in text and "last=4" in text
        assert any(block in text for block in "▁▂▃▄▅▆▇█")

    def test_render_trend_empty(self):
        assert "no history" in render_trend("demo", [])


class TestProvenance:
    def test_block_has_required_keys(self):
        block = provenance_block(key_size=256)
        assert set(block) == {"git_sha", "crypto_backend", "crypto_library",
                              "cpu_count", "python", "key_size", "timestamp"}
        assert block["key_size"] == 256
        assert block["crypto_backend"]
        assert block["cpu_count"] >= 1
        # the native library's version rides beside the backend's name
        assert (block["crypto_library"] is None) == (
            block["crypto_backend"] == "python")
        # In this checkout the sha must resolve to a real revision.
        assert block["git_sha"] != "unknown"


class TestBenchCLI:
    def run_cli(self, *argv) -> int:
        return main(list(argv))

    def test_run_then_check_passes_then_injected_regression_fails(
            self, tmp_path, capsys):
        history_dir = str(tmp_path / "history")
        for _ in range(3):
            assert self.run_cli("bench", "run", "--quick",
                                "--filter", "paillier_kernel",
                                "--history-dir", history_dir) == 0
        assert self.run_cli("bench", "check",
                            "--history-dir", history_dir) == 0
        capsys.readouterr()

        # Inject a synthetic 10x regression as the newest record.
        history = BenchHistory(history_dir)
        records = history.load("paillier_kernel")
        slow = json.loads(json.dumps(records[-1]))
        for metric in slow["metrics"]:
            if metric.endswith("_s"):
                slow["metrics"][metric] *= 10.0
            else:
                slow["metrics"][metric] /= 10.0
        history.append("paillier_kernel", slow)

        assert self.run_cli("bench", "check",
                            "--history-dir", history_dir) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "paillier_kernel" in out

    def test_report_renders_trend(self, tmp_path, capsys):
        history_dir = str(tmp_path / "history")
        history = BenchHistory(history_dir)
        for value in (1.0, 1.1, 1.05):
            history.append("demo", record(value))
        assert self.run_cli("bench", "report",
                            "--history-dir", history_dir) == 0
        out = capsys.readouterr().out
        assert "demo — 3 runs" in out and "query_s" in out

    def test_check_without_history_is_an_error(self, tmp_path, capsys):
        assert self.run_cli("bench", "check", "--history-dir",
                            str(tmp_path / "none")) == 2
        assert "no history" in capsys.readouterr().err

    def test_run_with_unknown_filter_is_an_error(self, tmp_path, capsys):
        assert self.run_cli("bench", "run", "--filter", "nope",
                            "--history-dir", str(tmp_path)) == 2
        assert "no bench matches" in capsys.readouterr().err
