"""Self-tests of the benchmark harness (collected by the tier-1 suite).

Unit tests pin the rules a wrong number would hide behind — the percentile
rule, the ``/proc`` parser, the correctness oracle, the machine-speed
yardstick, span self time and the comparison — and one smoke pass proves that all four deployments start,
answer correctly, emit every metric BENCHMARK.json names and leave no
process behind.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from repro.db.schema import Schema
from repro.db.table import Table

from benchmarks.e2e import procstat, report
from benchmarks.e2e.calibration import NOMINAL_MODEXP_S, Calibrator
from benchmarks.e2e.cli import main
from benchmarks.e2e.drills import run_drills
from benchmarks.e2e.loadgen import run_window
from benchmarks.e2e.metrics import (
    end_to_end,
    per_layer,
    percentile,
    tail_percentile,
)
from benchmarks.e2e.oracle import Oracle
from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import WORKLOADS, smoke


# -- the percentile rule ------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4], 0) == 1
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile([10, 20], 75) == 17.5
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("samples, expected", [
    (19, None),    # not even the median has ten samples beyond it
    (20, 50.0),
    (60, 75.0),    # basic_shards_k512: 15 beyond p75, 6 beyond p90
    (130, 90.0),   # serve_local_k512: 13 beyond p90, 6.5 beyond p95
    (1000, 99.0),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(
        samples, expected):
    assert tail_percentile(samples) == expected


# -- the /proc parser ---------------------------------------------------------

def test_stat_parser_survives_spaces_and_parentheses_in_the_command():
    ticks = procstat._CLOCK_TICKS
    text = ("4242 (python3 (worker) :) x) S 17 4242 4242 0 -1 4194304 "
            f"100 0 0 0 {3 * ticks} {2 * ticks} {4 * ticks} {1 * ticks} "
            "20 0 1 0 12345 1000000 500 18446744073709551615")
    assert procstat.parse_stat(text) == (17, 10.0)


def test_hwm_parser_reads_kb_and_tolerates_kernel_threads():
    assert procstat.parse_hwm_kb(
        "Name:\tpython3\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\n") == 20480
    assert procstat.parse_hwm_kb("Name:\tkthreadd\nState:\tS\n") == 0


def test_process_tree_follows_descendants_and_forgets_reaped_ones():
    child = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        tree = procstat.process_tree()
        assert child.pid in tree and procstat.os.getpid() in tree
        assert procstat.tree_peak_rss_mb() > 1.0
    finally:
        child.kill()
        child.wait(timeout=10)
    assert child.pid not in procstat.process_tree()
    assert child.returncode is not None


# -- the oracle ---------------------------------------------------------------

@pytest.fixture()
def tied_oracle() -> Oracle:
    # From the query (0, 0): distances 1, 4, 4, 4, 25 — a three-way tie at
    # the k-th distance for k=2, and the record (2, 0) is held twice.
    rows = [(1, 0), (2, 0), (0, 2), (2, 0), (5, 0)]
    return Oracle(Table.from_rows(Schema.uniform(2, maximum=7), rows))


def test_oracle_holds_sknn_b_to_the_index_tie_break(tied_oracle):
    assert tied_oracle.expected((0, 0), 2) == [(1, 0), (2, 0)]
    assert tied_oracle.is_correct((0, 0), 2, [(1, 0), (2, 0)], exact=True)
    assert not tied_oracle.is_correct((0, 0), 2, [(1, 0), (0, 2)],
                                      exact=True)


def test_oracle_never_fails_a_right_sknn_m_answer_on_a_tie(tied_oracle):
    for tied in [(2, 0), (0, 2)]:
        assert tied_oracle.is_correct((0, 0), 2, [(1, 0), tied], exact=False)
    # both copies of the duplicated record are one right answer for k=3
    assert tied_oracle.is_correct((0, 0), 3, [(1, 0), (2, 0), (2, 0)],
                                  exact=False)


@pytest.mark.parametrize("k, answer", [
    (2, [(1, 0), (5, 0)]),           # a farther record
    (2, [(1, 0), (1, 0)]),           # reused beyond its one copy
    (2, [(1, 0), (0, 3)]),           # not a table record
    (2, [(1, 0)]),                   # too few
    (4, [(1, 0), (0, 2), (0, 2), (2, 0)]),  # (0, 2) exists once
])
def test_oracle_always_fails_a_wrong_sknn_m_answer(tied_oracle, k, answer):
    assert not tied_oracle.is_correct((0, 0), k, answer, exact=False)


# -- the machine-speed yardstick ----------------------------------------------

def test_slowdown_is_the_mean_burst_of_the_phase_over_nominal():
    calibrator = Calibrator()
    calibrator._samples = [(1.0, NOMINAL_MODEXP_S),
                           (2.0, 3 * NOMINAL_MODEXP_S)]
    assert calibrator.slowdown(0.5, 1.5) == pytest.approx(1.0)
    assert calibrator.slowdown(0.5, 2.5) == pytest.approx(2.0)
    # no burst fell inside the phase: fall back to the whole run
    assert calibrator.slowdown(5.0, 6.0) == pytest.approx(2.0)


def test_calibrator_times_real_bursts_and_leaves_no_process():
    before = set(procstat.process_tree())
    calibrator = Calibrator()
    calibrator.start()
    began = time.monotonic()
    assert calibrator.pid in procstat.process_tree()
    time.sleep(0.6)
    calibrator.stop()
    calibrator.stop()  # idempotent
    assert set(procstat.process_tree()) == before
    assert 0.2 < calibrator.slowdown(began, time.monotonic()) < 20


# -- spans --------------------------------------------------------------------

def test_self_times_of_a_query_sum_to_its_root_span():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("loadgen.query", query="q0"):
        with tracer.span("layer.a"):
            time.sleep(0.002)
            with tracer.span("layer.b"):
                time.sleep(0.002)
        with tracer.span("layer.a"):
            time.sleep(0.001)
    with tracer.span("setup"):  # no query id: not part of any query's sum
        pass
    (query, entry), = tracer.per_query().items()
    assert query == "q0"
    assert entry["self_sum_s"] == pytest.approx(entry["root_s"], rel=1e-9)
    assert set(entry["self_by_name_s"]) == {"loadgen.query", "layer.a",
                                            "layer.b"}
    assert len(tracer.durations("layer.a")) == 2


def test_a_disabled_tracer_records_nothing():
    tracer = Tracer()
    with tracer.span("loadgen.query", query="q0"):
        pass
    assert tracer.per_query() == {}


# -- comparison ---------------------------------------------------------------

def _results(tmp_path, name, p50, **provenance):
    block = {"cpu_count": 2, "cpu_affinity": 2, "crypto_backend": "python"}
    block.update(provenance)
    document = {
        "provenance": block, "smoke": False, "seconds": 16.0,
        "workloads": {"serve_local_k512": {
            "failed": 0,
            "metrics": {"query_p50_ms": {"value": p50, "unit": "ms"},
                        "throughput_qps": {"value": 3.0, "unit": "1/s"}}}}}
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


def test_compare_applies_each_metric_bound_and_direction(tmp_path, capsys):
    bound = next(entry["bound"] for entry in report.load_spec()["end_to_end"]
                 if entry["name"] == "query_p50_ms")
    base = _results(tmp_path, "a.json", 100.0)
    inside = _results(tmp_path, "b.json", 100.0 * (1 + bound * 0.9))
    outside = _results(tmp_path, "c.json", 100.0 * (1 + bound * 1.1))
    assert main(["--compare", str(base), str(inside)]) == 0
    assert main(["--compare", str(base), str(outside)]) == 1
    assert "OUTSIDE" in capsys.readouterr().out
    # lower latency is an improvement, however large
    assert main(["--compare", str(outside), str(base)]) == 0


def test_compare_refuses_runs_from_different_cores_or_backends(tmp_path,
                                                               capsys):
    base = _results(tmp_path, "a.json", 100.0)
    other_cores = _results(tmp_path, "b.json", 100.0, cpu_affinity=1)
    other_backend = _results(tmp_path, "c.json", 100.0,
                             crypto_backend="gmpy2")
    assert main(["--compare", str(base), str(other_cores)]) \
        == report.INCOMPARABLE
    assert main(["--compare", str(base), str(other_backend)]) \
        == report.INCOMPARABLE
    assert "incomparable" in capsys.readouterr().out


# -- the smoke pass -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_pass_answers_correctly_and_emits_every_metric(name):
    spec = report.load_spec()
    workload = smoke(WORKLOADS[name])
    result = run_window(workload, seed=1, seconds=30.0, trace=True)

    assert result.samples and all(s.correct for s in result.samples), [
        s.error for s in result.samples]
    assert result.leaked_processes == []
    assert result.retries == 0
    for entry in result.tracer.per_query().values():
        assert entry["self_sum_s"] == pytest.approx(entry["root_s"],
                                                    rel=0.02)

    values, _ = end_to_end(result)
    report.typed_metrics(values, spec["end_to_end"])  # raises on a mismatch
    assert all(value > 0 for value in values.values()), values
    layers = per_layer(result, run_drills(workload, result.keypair, seed=1))
    report.typed_metrics(layers, spec["per_layer"])
    warm = name == "basic_warm_k1024"
    assert (layers["crypto.precompute.pool_hit_ratio"] >= 0.99) == warm


def test_smoke_run_is_flagged_and_never_comparable(tmp_path, capsys):
    assert main(["--smoke", "--workload", "serve_local_k512",
                 "--out", str(tmp_path)]) == 0
    last_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert set(json.loads(last_line)) == {"correct", "attempted", "failed",
                                          "metrics"}
    path = tmp_path / "untraced_serve_local_k512_smoke.json"
    document = json.loads(path.read_text())
    assert document["smoke"] is True
    assert {"git_sha", "crypto_backend", "python", "key_sizes", "seed",
            "cpu_count", "cpu_affinity",
            "loadavg_1min_at_start"} <= set(document["provenance"])
    assert main(["--compare", str(path), str(path)]) == report.INCOMPARABLE
