"""Unit tests for the ``repro.telemetry`` package.

Covers the four modules in isolation: the metrics registry (types, labels,
collectors, Prometheus exposition), the tracer (context propagation, wire
context, remote stitching, collector bounds), structured/slow-query logs,
and the stdlib ``/metrics`` HTTP listener.
"""

from __future__ import annotations

import json
import logging
import threading
import urllib.request

import pytest

from repro.telemetry import logs as telemetry_logs
from repro.telemetry import tracing
from repro.telemetry.httpd import MetricsHTTPServer, parse_listen_address
from repro.telemetry.metrics import MetricsRegistry


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests.")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_labelled_children_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("steps_total", "Steps.", ("tag",))
        counter.inc(tag="SM.go")
        counter.inc(3, tag="SBD.go")
        assert counter.labels("SM.go").value == 1
        assert counter.labels(tag="SBD.go").value == 3
        assert counter.value == 4  # family value sums every label set

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c", "").inc(-1)

    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help")
        assert registry.counter("c", "different help") is first

    def test_conflicting_reregistration_fails_loudly(self):
        registry = MetricsRegistry()
        registry.counter("c", "", ("tag",))
        with pytest.raises(ValueError):
            registry.counter("c", "", ("other",))
        with pytest.raises(ValueError):
            registry.gauge("c", "")

    def test_mismatched_labels_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", "", ("a", "b"))
        with pytest.raises(ValueError):
            counter.labels("only-one")


class TestGaugeAndHistogram:
    def test_gauge_sets_and_increments(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "Queue depth.")
        gauge.set(7)
        gauge.labels().inc(2)
        assert gauge.value == 9

    def test_histogram_snapshot_has_count_sum_mean(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds", "Latency.",
                                       ("protocol",))
        for value in (0.002, 0.004, 0.03):
            histogram.observe(value, protocol="SkNNb")
        snap = histogram.snapshot()["SkNNb"]
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(0.036)
        assert snap["mean"] == pytest.approx(0.012)

    def test_histogram_buckets_are_cumulative_in_exposition(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        text = registry.render_prometheus()
        assert 'h_bucket{le="0.1"} 1' in text
        assert 'h_bucket{le="1"} 2' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_sum" in text and "h_count 3" in text


class TestExposition:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_queries_total", "Queries.", ("protocol",)) \
            .inc(protocol="SkNNm")
        text = registry.render_prometheus()
        assert "# HELP repro_queries_total Queries." in text
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{protocol="SkNNm"} 1' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", "", ("tag",)).inc(tag='a"b\\c\nd')
        assert r'tag="a\"b\\c\nd"' in registry.render_prometheus()

    def test_collectors_run_at_scrape_time_only(self):
        registry = MetricsRegistry()
        calls = []

        def collect(target):
            calls.append(1)
            target.gauge("pool_fill", "").set(42)

        registry.add_collector(collect)
        assert calls == []  # registration alone never runs it
        assert "pool_fill 42" in registry.render_prometheus()
        registry.snapshot()
        assert len(calls) == 2
        registry.remove_collector(collect)
        registry.render_prometheus()
        assert len(calls) == 2

    def test_broken_collector_does_not_break_scraping(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda _: 1 / 0)
        registry.counter("ok_total", "").inc()
        assert "ok_total 1" in registry.render_prometheus()

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", "help!", ("x",)).inc(x="1")
        snap = registry.snapshot()
        assert snap["c"] == {"type": "counter", "help": "help!",
                             "labels": ["x"], "values": {"1": 1.0}}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class TestTracing:
    def test_span_without_active_trace_is_shared_noop(self):
        tracer = tracing.Tracer()
        first = tracer.span("anything")
        second = tracer.span("else")
        assert first is second  # the shared no-op: zero allocation when off
        with first:
            pass
        assert tracer.pending_traces() == 0

    def test_trace_records_root_and_nested_child(self):
        tracer = tracing.Tracer()
        with tracer.trace("query.SkNNb", party="C1", k=2) as root:
            with tracer.span("SSED.scan") as child:
                pass
        spans = tracer.take(root.trace_id)
        assert [s.name for s in spans] == ["SSED.scan", "query.SkNNb"]
        scan, query = spans
        assert scan.trace_id == query.trace_id == root.trace_id
        assert scan.parent_id == query.span_id
        assert query.parent_id is None
        assert query.party == scan.party == "C1"
        assert query.attributes == {"k": 2}
        assert child.span_id == scan.span_id

    def test_take_drains(self):
        tracer = tracing.Tracer()
        with tracer.trace("t") as root:
            pass
        assert len(tracer.take(root.trace_id)) == 1
        assert tracer.take(root.trace_id) == []

    def test_wire_context_inside_and_outside_trace(self):
        assert tracing.current_wire_context() is None
        with tracing.trace("query") as root:
            context = tracing.current_wire_context()
            assert context == [root.trace_id, root.span_id]
        assert tracing.current_wire_context() is None
        tracing.get_tracer().take(root.trace_id)

    def test_remote_span_stitches_into_the_senders_trace(self):
        tracer = tracing.Tracer()
        wire_context = ["a" * 32, "b" * 16]
        with tracer.remote_span("p2.SM.go", wire_context, party="C2"):
            pass
        (span,) = tracer.take("a" * 32)
        assert span.trace_id == "a" * 32
        assert span.parent_id == "b" * 16
        assert span.party == "C2"

    def test_remote_span_without_context_is_noop(self):
        tracer = tracing.Tracer()
        assert tracer.remote_span("x", None) is tracer.span("y")

    def test_exceptions_are_recorded_and_context_restored(self):
        tracer = tracing.Tracer()
        with pytest.raises(RuntimeError):
            with tracer.trace("boom") as root:
                raise RuntimeError("nope")
        assert tracing.current_wire_context() is None
        (span,) = tracer.take(root.trace_id)
        assert span.attributes["error"] == "RuntimeError"

    def test_trace_ids_are_128_bit_hex_and_unique(self):
        ids = {tracing.new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for trace_id in ids:
            assert len(trace_id) == 32
            int(trace_id, 16)

    def test_collector_evicts_oldest_trace_beyond_bound(self):
        tracer = tracing.Tracer()
        first_ids = []
        for index in range(tracing.MAX_TRACKED_TRACES + 5):
            with tracer.trace(f"t{index}") as root:
                pass
            first_ids.append(root.trace_id)
        assert tracer.pending_traces() == tracing.MAX_TRACKED_TRACES
        assert tracer.take(first_ids[0]) == []   # evicted
        assert len(tracer.take(first_ids[-1])) == 1

    def test_span_payload_roundtrip_and_sorted_trace_payload(self):
        tracer = tracing.Tracer()
        with tracer.trace("query2", party="C1") as root:
            pass
        spans = tracer.take(root.trace_id)
        restored = tracing.Span.from_payload(spans[0].as_payload())
        assert restored == spans[0]
        payload = tracing.trace_payload(root.trace_id, [
            {"name": "b", "start": 2.0}, {"name": "a", "start": 1.0}])
        assert [row["name"] for row in payload["spans"]] == ["a", "b"]
        assert payload["trace_id"] == root.trace_id


# ---------------------------------------------------------------------------
# logs
# ---------------------------------------------------------------------------

class TestSlowQueryLog:
    def test_threshold(self):
        log = telemetry_logs.SlowQueryLog(threshold_seconds=0.5,
                                          logger=logging.getLogger("t.slow"))
        assert not log.observe(0.4, protocol="SkNNb")
        assert log.observe(0.6, protocol="SkNNm", trace_id="ff", k=5)
        snap = log.snapshot()
        assert snap["total_slow"] == 1
        (entry,) = snap["recent"]
        assert entry["protocol"] == "SkNNm"
        assert entry["trace_id"] == "ff"
        assert entry["k"] == 5

    def test_disabled_with_none_threshold(self):
        log = telemetry_logs.SlowQueryLog(threshold_seconds=None)
        assert not log.observe(10_000.0)
        assert log.snapshot()["total_slow"] == 0

    def test_ring_is_bounded_but_total_keeps_counting(self):
        log = telemetry_logs.SlowQueryLog(threshold_seconds=0.0, capacity=3,
                                          logger=logging.getLogger("t.slow2"))
        for index in range(7):
            log.observe(float(index) + 0.1, protocol=f"p{index}")
        snap = log.snapshot()
        assert snap["total_slow"] == 7
        assert [e["protocol"] for e in snap["recent"]] == ["p4", "p5", "p6"]


class TestJsonLogging:
    def test_formatter_emits_json_with_extras_and_trace_id(self):
        formatter = telemetry_logs.JsonLogFormatter()
        record = logging.LogRecord("repro.test", logging.INFO, __file__, 1,
                                   "served %d", (3,), None)
        record.protocol = "SkNNb"
        with tracing.trace("query") as root:
            entry = json.loads(formatter.format(record))
        tracing.get_tracer().take(root.trace_id)
        assert entry["message"] == "served 3"
        assert entry["level"] == "INFO"
        assert entry["protocol"] == "SkNNb"
        assert entry["trace_id"] == root.trace_id

    def test_configure_is_idempotent_per_logger(self):
        logger = logging.getLogger("repro.test.jsoncfg")
        try:
            first = telemetry_logs.configure_json_logging(
                logging.DEBUG, logger=logger)
            second = telemetry_logs.configure_json_logging(
                logging.INFO, logger=logger)
            assert first is second
            assert len(logger.handlers) == 1
            assert logger.level == logging.INFO
        finally:
            logger.handlers.clear()


# ---------------------------------------------------------------------------
# httpd
# ---------------------------------------------------------------------------

def _get(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


class TestMetricsHTTPServer:
    def test_parse_listen_address(self):
        assert parse_listen_address("127.0.0.1:9109") == ("127.0.0.1", 9109)
        assert parse_listen_address("0.0.0.0:0") == ("0.0.0.0", 0)
        with pytest.raises(ValueError):
            parse_listen_address("9109")
        with pytest.raises(ValueError):
            parse_listen_address("host:")

    def test_serves_metrics_stats_and_healthz(self):
        registry = MetricsRegistry()
        registry.counter("repro_p2_steps_total", "Steps.", ("tag",)) \
            .inc(tag="SM.go")
        with MetricsHTTPServer("127.0.0.1:0", registry=registry,
                               extra_stats=lambda: {"role": "C2"}) as server:
            status, body = _get(server.url + "/metrics")
            assert status == 200
            assert 'repro_p2_steps_total{tag="SM.go"} 1' in body

            status, body = _get(server.url + "/stats")
            document = json.loads(body)
            assert document["role"] == "C2"
            assert document["metrics"]["repro_p2_steps_total"]["values"] \
                == {"SM.go": 1.0}

            assert _get(server.url + "/healthz") == (200, "ok\n")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/nope")
            assert excinfo.value.code == 404

    def test_broken_extra_stats_does_not_take_the_page_down(self):
        registry = MetricsRegistry()

        def explode():
            raise RuntimeError("stats backend gone")

        with MetricsHTTPServer("127.0.0.1:0", registry=registry,
                               extra_stats=explode) as server:
            status, body = _get(server.url + "/stats")
            assert status == 200
            assert "stats_error" in json.loads(body)

    def test_concurrent_scrapes(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "").inc()
        results: list[int] = []
        with MetricsHTTPServer("127.0.0.1:0", registry=registry) as server:
            def scrape():
                status, _ = _get(server.url + "/metrics")
                results.append(status)

            threads = [threading.Thread(target=scrape) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert results == [200] * 8


class TestHistogramQuantiles:
    def test_bucket_quantile_interpolates_within_buckets(self):
        from repro.telemetry.metrics import bucket_quantile

        buckets = (1.0, 2.0, 4.0)
        # 10 observations in (0,1], 10 in (1,2], none beyond.
        counts = [10, 10, 0, 0]
        assert bucket_quantile(buckets, counts, 20, 0.50) == pytest.approx(1.0)
        assert bucket_quantile(buckets, counts, 20, 0.25) == pytest.approx(0.5)
        assert bucket_quantile(buckets, counts, 20, 0.75) == pytest.approx(1.5)

    def test_bucket_quantile_edge_cases(self):
        from repro.telemetry.metrics import bucket_quantile

        buckets = (1.0, 2.0)
        assert bucket_quantile(buckets, [0, 0, 0], 0, 0.5) == 0.0
        # Every observation beyond the last finite bound clamps to it.
        assert bucket_quantile(buckets, [0, 0, 5], 5, 0.99) == 2.0

    def test_histogram_snapshot_includes_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", "", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.05, 0.5, 0.5, 0.5, 5.0):
            hist.observe(value)
        values = hist.snapshot()[""]
        assert set(values) >= {"count", "sum", "mean", "p50", "p95", "p99"}
        assert 0.1 < values["p50"] <= 1.0
        assert 1.0 < values["p99"] <= 10.0


class TestHTTPServerHardening:
    def test_404_carries_json_error_body(self):
        registry = MetricsRegistry()
        with MetricsHTTPServer("127.0.0.1:0", registry=registry) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/nope")
            assert excinfo.value.code == 404
            document = json.loads(excinfo.value.read().decode("utf-8"))
            assert document["error"] == "not found"
            assert document["path"] == "/nope"
            assert "/metrics" in document["endpoints"]

    def test_profile_endpoint_serves_collapsed_stacks(self):
        registry = MetricsRegistry()
        with MetricsHTTPServer("127.0.0.1:0", registry=registry) as server:
            # No armed profiler: the endpoint samples with an ephemeral one.
            status, body = _get(server.url + "/profile?seconds=0.1")
            assert status == 200
            for line in body.strip().splitlines():
                stack, _, count = line.rpartition(" ")
                assert stack and int(count) > 0

    def test_profile_endpoint_rejects_bad_seconds(self):
        registry = MetricsRegistry()
        with MetricsHTTPServer("127.0.0.1:0", registry=registry) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/profile?seconds=bogus")
            assert excinfo.value.code == 400

    def test_scrapes_survive_concurrent_registry_reset(self):
        from repro.telemetry.metrics import get_registry, reset_registry

        reset_registry()
        get_registry().counter("reset_race_total", "").inc()
        statuses: list[int] = []
        # registry=None tracks the *global* registry per request.
        with MetricsHTTPServer("127.0.0.1:0") as server:
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    reset_registry()
                    get_registry().counter("reset_race_total", "").inc()

            resetter = threading.Thread(target=hammer)
            resetter.start()
            try:
                for _ in range(20):
                    status, _ = _get(server.url + "/metrics")
                    statuses.append(status)
                    status, _ = _get(server.url + "/stats")
                    statuses.append(status)
            finally:
                stop.set()
                resetter.join()
        reset_registry()
        assert statuses == [200] * 40
