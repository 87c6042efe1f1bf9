"""The closed-loop load generator: set up, warm up, measure one window.

Bob waits for his answer, so every client is closed-loop: it sends its next
query only after the previous one was answered.  One run of a workload is

1. key generation from a fixed key seed (outside the ``setup_s`` clock),
   and the start of the calibration child that times the machine itself
   for as long as the run lasts;
2. ``setup → teardown`` cycles from the plaintext table and the key pair to
   ready-for-first-query — several where one is cheap, so ``setup_s`` can
   be a median — the last of which stays up;
3. one unmeasured warm-up query per client (lazy pools and connections);
4. the measured window: each client asks seeded queries back to back until
   ``seconds`` have passed (or its cap is reached, where warmed pools cover
   a fixed count), while the runner samples the CPU time of the whole
   process tree at both edges and its peak memory at the end;
5. teardown in ``finally``, and a check that no descendant survived.

Answers are checked against the plaintext oracle after the window, so the
check costs the clients nothing while they are being timed.
"""

from __future__ import annotations

import statistics
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from random import Random
from typing import Any

from repro.crypto.paillier import PaillierKeyPair, generate_keypair
from repro.db.datasets import (
    max_attribute_value_for_distance_bits,
    synthetic_uniform,
)
from repro.telemetry import metrics as telemetry_metrics

from benchmarks.e2e import procstat
from benchmarks.e2e.calibration import Calibrator
from benchmarks.e2e.oracle import Oracle
from benchmarks.e2e.trace import Tracer, instrument
from benchmarks.e2e.workloads import QUERY_DEADLINE_S, Answer, Ask, Workload

__all__ = ["KEY_SEED", "Sample", "WindowResult", "run_window"]

#: the key pair is the same on every run, whatever ``--seed`` says
KEY_SEED = 20140331

#: share of a traced window that runs with spans *off*, to price the tracing
_UNTRACED_SHARE = 0.3

#: ``RemoteCloud.stats()`` calls that time the control plane of a traced run
_CONTROL_PINGS = 20

#: counters the program increments when a layer had to try again
_RESILIENCE_FAMILIES = ("repro_retries_total", "repro_reconnects_total",
                        "repro_chunk_retries_total",
                        "repro_deadline_hits_total",
                        "repro_replayed_replies_total")


@dataclass
class Sample:
    """One query as its client saw it."""

    query_id: str
    query: tuple[int, ...]
    started: float
    ended: float
    traced: bool
    answer: Answer | None
    error: str | None
    correct: bool = False

    @property
    def latency_s(self) -> float:
        return self.ended - self.started


@dataclass
class WindowResult:
    """Everything one run of one workload measured."""

    workload: Workload
    keypair: PaillierKeyPair = field(repr=False)
    keygen_s: float
    setup_s: list[float]
    #: how much slower than nominal the machine ran while setting up, and
    #: during the window (see :mod:`benchmarks.e2e.calibration`)
    setup_slowdown: float
    window_slowdown: float
    first_query_s: float
    samples: list[Sample]
    window_s: float
    cpu_s: float
    peak_rss_mb: float
    reports_before: dict[str, Any]
    reports_after: dict[str, Any]
    retries: float
    control_roundtrip_s: float
    teardown_s: float
    leaked_processes: list[int]
    tracer: Tracer = field(repr=False)


class _Client:
    """One closed-loop client: its connection, query stream and samples."""

    def __init__(self, index: int, ask: Ask, queries: Random,
                 workload: Workload, tracer: Tracer) -> None:
        self.index = index
        self.ask = ask
        self.queries = queries
        self.dimensions = workload.m
        self.max_value = max_attribute_value_for_distance_bits(
            workload.m, workload.l)
        self.tracer = tracer
        self.samples: list[Sample] = []

    def run(self, stop_at: float, max_queries: int | None,
            trace_after: int | None = None) -> None:
        """Ask back to back until ``stop_at`` or ``max_queries`` answers,
        switching spans on once ``trace_after`` queries have been asked."""
        issued = 0
        while time.perf_counter() < stop_at and (
                max_queries is None or issued < max_queries):
            if issued == trace_after:
                self.tracer.enabled = True
            issued += 1
            query = tuple(self.queries.randint(0, self.max_value)
                          for _ in range(self.dimensions))
            query_id = f"c{self.index}q{len(self.samples)}"
            traced = self.tracer.enabled
            answer = error = None
            started = time.perf_counter()
            try:
                with self.tracer.span("loadgen.query", query=query_id):
                    answer = self.ask(query)
            except Exception:  # a failed query is a data point, not a crash
                error = traceback.format_exc()
            ended = time.perf_counter()
            if error is None and ended - started > QUERY_DEADLINE_S:
                error = f"answered after the {QUERY_DEADLINE_S:.0f}s deadline"
            self.samples.append(Sample(query_id, query, started, ended,
                                       traced, answer, error))


def _run_clients(clients: list[_Client], stop_at: float,
                 max_queries: int | None,
                 trace_after: int | None = None) -> tuple[float, float]:
    """Run every client on its own thread to completion; ``(start, end)``."""
    threads = [threading.Thread(target=client.run,
                                args=(stop_at, max_queries, trace_after),
                                name=f"loadgen-client-{client.index}")
               for client in clients]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return started, time.perf_counter()


def _resilience_events(reports: dict[str, Any]) -> float:
    """Retries, reconnects and deadline hits so far: the runner's own
    registry plus every daemon's ``stats()["resilience"]["events"]``."""
    snapshot = telemetry_metrics.get_registry().snapshot()
    total = sum(sum(snapshot[family].get("values", {}).values())
                for family in _RESILIENCE_FAMILIES if family in snapshot)
    stats = reports.get("daemons")
    if stats:
        daemons = [stats["c1"], stats["c2"], *stats.get("shards", [])]
        total += sum(daemon["resilience"]["events"].get(family, 0.0)
                     for daemon in daemons
                     for family in _RESILIENCE_FAMILIES)
    return total


def run_window(workload: Workload, seed: int, seconds: float,
               trace: bool) -> WindowResult:
    """Run one workload once and return what was measured."""
    began = time.perf_counter()
    keypair = generate_keypair(workload.key_size, Random(KEY_SEED))
    keygen_s = time.perf_counter() - began

    table = synthetic_uniform(workload.n, workload.m,
                              distance_bits=workload.l, seed=seed)
    oracle = Oracle(table)
    query_seeds = Random(seed + 1)
    tracer = Tracer()
    processes_before = set(procstat.process_tree())
    calibrator = Calibrator()

    deployment = None
    # Party daemons take ~5 s to exit (a join timeout in their close()), so
    # the deployments of the earlier setup cycles are torn down off-thread
    # while the next one comes up; they are idle by then.
    retiring: list[threading.Thread] = []
    try:
        with instrument(tracer) if trace else nullcontext():
            calibrator.start()
            setup_began = time.monotonic()
            tracer.enabled = trace  # setup spans
            setup_s: list[float] = []
            while True:
                deployment = workload.deploy(workload, keypair, table,
                                             seed + 2 + len(setup_s))
                began = time.perf_counter()
                deployment.setup()
                setup_s.append(time.perf_counter() - began)
                if len(setup_s) == workload.setup_cycles:
                    break
                retiring.append(threading.Thread(
                    target=deployment.teardown, name="loadgen-teardown"))
                retiring[-1].start()
                deployment = None
            tracer.enabled = False

            clients = [_Client(index, deployment.client(index),
                               Random(query_seeds.getrandbits(63)),
                               workload, tracer)
                       for index in range(workload.clients)]
            _run_clients(clients, float("inf"), 1)
            warmups = [client.samples.pop() for client in clients]
            for warmup in warmups:
                if warmup.error is not None:
                    raise RuntimeError(
                        f"warm-up query failed:\n{warmup.error}")
            first_query_s = max(warmup.latency_s for warmup in warmups)

            # A traced window starts with spans off, to price the tracing:
            # that share of the queries each client is expected to ask.
            expected_queries = seconds / first_query_s
            if workload.max_queries is not None:
                expected_queries = min(expected_queries, workload.max_queries)
            trace_after = max(1, round(_UNTRACED_SHARE * expected_queries))
            reports_before = deployment.reports()
            retries_before = _resilience_events(reports_before)
            cpu_before = procstat.tree_cpu_seconds(exclude=calibrator.pid)
            window_began = time.monotonic()
            window_started, window_ended = _run_clients(
                clients, time.perf_counter() + seconds, workload.max_queries,
                trace_after if trace else None)
            window_over = time.monotonic()
            tracer.enabled = False
            for thread in retiring:
                thread.join()
            cpu_s = (procstat.tree_cpu_seconds(exclude=calibrator.pid)
                     - cpu_before)
            calibrator.stop()
            peak_rss_mb = procstat.tree_peak_rss_mb()
            reports_after = deployment.reports()
            retries = _resilience_events(reports_after) - retries_before
            pings = []
            while trace and len(pings) < _CONTROL_PINGS:
                began = time.perf_counter()
                if not deployment.control_ping():
                    break
                pings.append(time.perf_counter() - began)
    finally:
        calibrator.stop()
        began = time.perf_counter()
        if deployment is not None:
            deployment.teardown()
        teardown_s = time.perf_counter() - began
        for thread in retiring:
            thread.join()

    samples = [sample for client in clients for sample in client.samples]
    for sample in samples:
        sample.correct = sample.error is None and oracle.is_correct(
            sample.query, workload.k, sample.answer.neighbors,
            exact=not workload.secure)
    leaked = sorted(set(procstat.process_tree()) - processes_before)
    return WindowResult(
        workload=workload, keypair=keypair, keygen_s=keygen_s,
        setup_s=setup_s,
        setup_slowdown=calibrator.slowdown(setup_began, window_began),
        window_slowdown=calibrator.slowdown(window_began, window_over),
        first_query_s=first_query_s, samples=samples,
        window_s=window_ended - window_started, cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb, reports_before=reports_before,
        reports_after=reports_after, retries=retries,
        control_roundtrip_s=statistics.median(pings) if pings else 0.0,
        teardown_s=teardown_s,
        leaked_processes=leaked, tracer=tracer)
