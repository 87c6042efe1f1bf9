"""Unit tests for phase-level cost attribution and the sampling profiler.

The ledger half runs on a fake clock and fake operation counters so every
attribution assertion is exact; the acceptance tests at the bottom run the
real serial protocols and pin down the tentpole invariants: phase seconds
sum to the query wall time (within 1%) and phase operation counts sum
exactly to the Paillier counter deltas.
"""

from __future__ import annotations

import threading
import time
from random import Random

import pytest

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiling import (
    _ACTIVE_LEDGER,
    _NOOP_SCOPE,
    CostLedger,
    SamplingProfiler,
    cost_scope,
    format_cost_table,
    phase_seconds_of,
    profile_window,
    record_phase_metrics,
    wrap_span,
)
from tests.integration.helpers import assert_stats_are_row_sums


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class FakeCounter:
    """Operation-counter stand-in with a driveable snapshot."""

    def __init__(self) -> None:
        self.ops: dict[str, int] = {}

    def bump(self, op: str, count: int = 1) -> None:
        self.ops[op] = self.ops.get(op, 0) + count

    def snapshot(self) -> dict[str, int]:
        return dict(self.ops)


def rows_by_key(rows):
    return {(row["phase"], row["party"]): row for row in rows}


class TestCostLedger:
    def test_exclusive_attribution_with_fake_clock(self):
        clock, counter = FakeClock(), FakeCounter()
        ledger = CostLedger([counter], clock=clock)
        with ledger.activate():
            with cost_scope("scan"):
                clock.advance(2.0)
                counter.bump("encryptions", 5)
            with cost_scope("select"):
                clock.advance(1.0)
                counter.bump("decryptions", 3)
        rows = rows_by_key(ledger.finish())
        assert rows[("scan", "C1")]["seconds"] == pytest.approx(2.0)
        assert rows[("scan", "C1")]["ops"] == {"encryptions": 5}
        assert rows[("select", "C1")]["seconds"] == pytest.approx(1.0)
        assert rows[("select", "C1")]["ops"] == {"decryptions": 3}

    def test_nested_scopes_roll_up(self):
        clock, counter = FakeClock(), FakeCounter()
        ledger = CostLedger([counter], clock=clock)
        with ledger.activate():
            with cost_scope("scan"):
                clock.advance(1.0)           # scan itself
                counter.bump("encryptions", 1)
                with cost_scope("SM"):       # nested: scan/SM
                    clock.advance(3.0)
                    counter.bump("exponentiations", 7)
        # The rollup merges nested paths into the outermost phase.
        rows = rows_by_key(ledger.breakdown())
        assert rows[("scan", "C1")]["seconds"] == pytest.approx(4.0)
        assert rows[("scan", "C1")]["ops"] == {"encryptions": 1,
                                               "exponentiations": 7}

    def test_party_override_and_inheritance(self):
        clock, counter = FakeClock(), FakeCounter()
        ledger = CostLedger([counter], party="C1", clock=clock)
        with ledger.activate():
            with cost_scope("scan", party="C2"):
                clock.advance(1.0)
                with cost_scope("SM"):       # inherits C2 from the parent
                    clock.advance(2.0)
                    counter.bump("decryptions", 4)
        rows = rows_by_key(ledger.finish())
        assert set(rows) == {("scan", "C2")}
        assert rows[("scan", "C2")]["seconds"] == pytest.approx(3.0)
        assert rows[("scan", "C2")]["ops"] == {"decryptions": 4}

    def test_unscoped_work_lands_in_other_without_idle_seconds(self):
        clock, counter = FakeClock(), FakeCounter()
        ledger = CostLedger([counter], clock=clock)
        # Before activation: ops count, idle seconds do not.
        counter.bump("encryptions", 2)
        clock.advance(50.0)
        with ledger.activate():
            with cost_scope("scan"):
                clock.advance(1.0)
        # Between activations: same rule.
        counter.bump("encryptions", 3)
        clock.advance(500.0)
        with ledger.activate():
            clock.advance(0.25)              # activated but unscoped
        rows = rows_by_key(ledger.finish())
        assert rows[("other", "C1")]["ops"] == {"encryptions": 5}
        assert rows[("other", "C1")]["seconds"] == pytest.approx(0.25)
        total = sum(row["seconds"] for row in rows.values())
        assert total == pytest.approx(1.25)  # 550s of idle time excluded

    def test_row_ops_sum_to_counter_deltas(self):
        clock, counter = FakeClock(), FakeCounter()
        counter.bump("encryptions", 11)      # pre-existing count
        ledger = CostLedger([counter], clock=clock)
        with ledger.activate():
            with cost_scope("a"):
                counter.bump("encryptions", 5)
                counter.bump("exponentiations", 2)
            counter.bump("decryptions", 1)
        totals: dict[str, float] = {}
        for row in ledger.finish():
            for op, count in row["ops"].items():
                totals[op] = totals.get(op, 0) + count
        assert totals == {"encryptions": 5, "exponentiations": 2,
                          "decryptions": 1}

    def test_extras_are_sampled_and_exception_safe(self):
        clock = FakeClock()
        hits = {"n": 0}

        def broken():
            raise RuntimeError("engine detached")

        ledger = CostLedger([], extras={"pool_hits": lambda: hits["n"],
                                        "broken": broken}, clock=clock)
        with ledger.activate():
            with cost_scope("scan"):
                hits["n"] = 9
                clock.advance(1.0)
        rows = rows_by_key(ledger.finish())
        assert rows[("scan", "C1")]["ops"] == {"pool_hits": 9}

    def test_scope_without_ledger_is_shared_noop(self):
        assert _ACTIVE_LEDGER.get() is None
        assert cost_scope("scan") is _NOOP_SCOPE
        with cost_scope("scan"):
            pass  # must not raise

    def test_wrap_span_passthrough_and_pairing(self):
        class Span:
            def __init__(self):
                self.span_id = "s1"
                self.trace_id = "t1"

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

        span = Span()
        assert wrap_span(span, "SM") is span  # no ledger armed
        clock = FakeClock()
        ledger = CostLedger([], clock=clock)
        with ledger.activate():
            wrapped = wrap_span(span, "SM")
            assert wrapped is not span
            with wrapped:
                clock.advance(2.0)
            assert wrapped.span_id == "s1" and wrapped.trace_id == "t1"
        rows = rows_by_key(ledger.finish())
        assert rows[("SM", "C1")]["seconds"] == pytest.approx(2.0)

    def test_record_phase_metrics_emits_both_families(self):
        registry = MetricsRegistry()
        record_phase_metrics(
            [{"phase": "scan", "party": "C1", "seconds": 0.5,
              "ops": {"encryptions": 3, "pool_hits": 0}}],
            registry=registry)
        snapshot = registry.snapshot()
        seconds = snapshot["repro_phase_seconds"]["values"]["scan,C1"]
        assert seconds["count"] == 1 and seconds["sum"] == pytest.approx(0.5)
        ops = snapshot["repro_phase_ops_total"]["values"]
        assert ops == {"scan,C1,encryptions": 3.0}  # zero-count op dropped

    def test_helpers_render(self):
        rows = [{"phase": "scan", "party": "C1", "seconds": 0.5,
                 "ops": {"encryptions": 3}},
                {"phase": "scan", "party": "C2", "seconds": 0.25, "ops": {}}]
        assert phase_seconds_of(rows) == {"scan": pytest.approx(0.75)}
        table = format_cost_table(rows)
        assert "scan" in table and "0.5000" in table
        assert format_cost_table([]).startswith("(no cost attribution")


# ---------------------------------------------------------------------------
# sampling profiler
# ---------------------------------------------------------------------------

class Frame:
    """Minimal stand-in for a Python frame object."""

    class Code:
        def __init__(self, filename, name):
            self.co_filename = filename
            self.co_name = name

    def __init__(self, filename, name, back=None):
        self.f_code = self.Code(filename, name)
        self.f_back = back


def make_stack(*names):
    """Frames for root-to-leaf ``names``; returns the leaf frame."""
    frame = None
    for name in names:
        frame = Frame("/src/mod.py", name, back=frame)
    return frame


class TestSamplingProfiler:
    def test_sample_once_with_injected_frames(self):
        profiler = SamplingProfiler()
        leaf = make_stack("main", "run", "powmod")
        assert profiler.sample_once(frames={1: leaf}) == 1
        profiler.sample_once(frames={1: leaf})
        counts = profiler.snapshot_counts()
        assert counts == {"mod.py:main;mod.py:run;mod.py:powmod": 2}

    def test_collapsed_output_is_flamegraph_format(self):
        profiler = SamplingProfiler()
        hot, cold = make_stack("main", "hot"), make_stack("main", "cold")
        for _ in range(3):
            profiler.sample_once(frames={1: hot})
        profiler.sample_once(frames={1: cold})
        lines = profiler.collapsed().splitlines()
        assert lines[0] == "mod.py:main;mod.py:hot 3"  # sorted by count
        assert lines[1] == "mod.py:main;mod.py:cold 1"

    def test_collapsed_since_snapshot_diffs(self):
        profiler = SamplingProfiler()
        stack = make_stack("main", "work")
        profiler.sample_once(frames={1: stack})
        before = profiler.snapshot_counts()
        profiler.sample_once(frames={1: stack})
        assert profiler.collapsed(since=before) \
            == "mod.py:main;mod.py:work 1\n"
        assert profiler.collapsed(since=profiler.snapshot_counts()) == ""

    def test_skip_thread_and_max_depth(self):
        profiler = SamplingProfiler(max_depth=2)
        deep = make_stack("a", "b", "c", "d")
        profiler.sample_once(frames={1: deep, 2: deep}, skip_thread=2)
        (stack, count), = profiler.snapshot_counts().items()
        assert count == 1
        assert stack.count(";") == 1  # depth capped at 2 frames

    def test_reset_and_sample_counter(self):
        profiler = SamplingProfiler()
        profiler.sample_once(frames={1: make_stack("main")})
        assert profiler.samples == 1
        profiler.reset()
        assert profiler.samples == 0 and profiler.snapshot_counts() == {}

    def test_live_thread_smoke(self):
        profiler = SamplingProfiler(interval=0.005)
        stop = threading.Event()

        def busy():
            while not stop.is_set():
                sum(range(1000))

        worker = threading.Thread(target=busy)
        worker.start()
        try:
            with profiler:
                time.sleep(0.15)
                assert profiler.running
            assert not profiler.running
        finally:
            stop.set()
            worker.join()
        assert profiler.samples > 0
        assert profiler.collapsed().strip()

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0.0)

    def test_profile_window_without_armed_profiler(self):
        result = profile_window(None, seconds=0.06)
        assert result["armed"] is False
        assert result["seconds"] == pytest.approx(0.06)
        assert result["samples"] >= 0

    def test_profile_window_clamps_and_uses_armed_profiler(self):
        profiler = SamplingProfiler(interval=0.005)
        with profiler:
            result = profile_window(profiler, seconds=1e9, max_seconds=0.1)
        assert result["armed"] is True
        assert result["seconds"] == pytest.approx(0.1)
        assert result["interval"] == pytest.approx(0.005)


# ---------------------------------------------------------------------------
# serial acceptance: the tentpole invariants on the real protocols
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def serial_system():
    from repro.core.cloud import FederatedCloud
    from repro.core.roles import DataOwner, QueryClient
    from repro.crypto.paillier import generate_keypair
    from repro.db.datasets import synthetic_uniform

    keypair = generate_keypair(256, Random(5150))
    table = synthetic_uniform(n_records=8, dimensions=2, distance_bits=7,
                              seed=5)
    owner = DataOwner(table, keypair=keypair, rng=Random(1))
    cloud = FederatedCloud.deploy(keypair, rng=Random(2))
    cloud.c1.host_database(owner.encrypt_database())
    client = QueryClient(keypair.public_key, 2, rng=Random(3))
    return cloud, client


def assert_cost_invariants(report, expected_phases):
    rows = report.cost_breakdown
    assert rows, "run_with_report must attach cost rows"
    phases = {row["phase"] for row in rows}
    assert expected_phases <= phases

    # Invariant 1: phase seconds sum to the wall time within 1% (serial
    # mode: both parties execute inline, so every row counts).
    total_seconds = sum(row["seconds"] for row in rows)
    assert total_seconds == pytest.approx(report.wall_time_seconds,
                                          rel=0.01), (
        f"phase seconds {total_seconds} vs wall {report.wall_time_seconds}")

    # Invariant 2: phase op counts sum exactly to the run's counters.
    stats = report.stats
    totals: dict[str, float] = {}
    for row in rows:
        for op, count in row["ops"].items():
            totals[op] = totals.get(op, 0) + count
    assert totals.get("encryptions", 0) \
        == stats.c1_encryptions + stats.c2_encryptions
    assert totals.get("decryptions", 0) == stats.c2_decryptions
    assert totals.get("exponentiations", 0) \
        == stats.c1_exponentiations + stats.c2_exponentiations
    assert totals.get("homomorphic_additions", 0) \
        == stats.c1_homomorphic_additions \
        + stats.extra.get("c2_homomorphic_additions", 0)

    # ... party by party: stats is a projection of these rows.
    assert_stats_are_row_sums(report)

    # Invariant 3: the serial runtime attributes C2's handler work to C2.
    c2_rows = [row for row in rows if row["party"] == "C2"]
    assert c2_rows and any(row["ops"].get("decryptions") for row in c2_rows)


def test_sknn_basic_cost_breakdown(serial_system):
    from repro.core.sknn_basic import SkNNBasic
    from repro.telemetry.metrics import get_registry, reset_registry

    cloud, client = serial_system
    reset_registry()
    protocol = SkNNBasic(cloud)
    protocol.run_with_report(client.encrypt_query([3, 4]), 2,
                             distance_bits=7)
    report = protocol.last_report
    assert_cost_invariants(report, {"scan", "select", "deliver"})
    assert set(report.phase_seconds) >= {"scan", "select", "deliver"}

    snapshot = get_registry().snapshot()
    assert any(key.startswith("scan,") for key in
               snapshot["repro_phase_seconds"]["values"])
    assert any(key.startswith("scan,") for key in
               snapshot["repro_phase_ops_total"]["values"])
    reset_registry()


def test_sknn_secure_cost_breakdown(serial_system):
    from repro.core.sknn_secure import SkNNSecure
    from repro.telemetry.metrics import reset_registry

    cloud, client = serial_system
    reset_registry()
    protocol = SkNNSecure(cloud, distance_bits=7)
    protocol.run_with_report(client.encrypt_query([3, 4]), 2,
                             distance_bits=7)
    assert_cost_invariants(
        protocol.last_report,
        {"scan", "select", "extract", "eliminate", "deliver"})
    reset_registry()


def test_cost_breakdown_roundtrips_report_payload(serial_system):
    from repro.core.sknn_base import SkNNRunReport
    from repro.core.sknn_basic import SkNNBasic

    cloud, client = serial_system
    protocol = SkNNBasic(cloud)
    protocol.run_with_report(client.encrypt_query([3, 4]), 2,
                             distance_bits=7)
    payload = protocol.last_report.as_payload()
    restored = SkNNRunReport.from_payload(payload)
    assert restored.cost_breakdown == protocol.last_report.cost_breakdown
