"""Distributed profiling: cost attribution across two real daemon processes.

The distributed acceptance bar for the cost ledger: on a query executed
across C1/C2 daemon subprocesses, the C1-attributed phase rows must sum to
the query wall time (within 1%), the stitched C2 rows must carry the exact
operation counts the run stats report for C2, and a live scrape of C1's
``/profile`` endpoint during a query must capture a protocol frame.

CI runs this at 256-bit keys (``REPRO_DISTRIBUTED_BITS`` overrides).
"""

from __future__ import annotations

import os
import threading
import urllib.request
from random import Random

import pytest

from repro.core.roles import DataOwner, QueryClient
from repro.db.datasets import synthetic_uniform
from repro.transport.client import RemoteStore
from repro.transport.supervisor import LocalSupervisor
from tests.integration.helpers import assert_stats_are_row_sums

KEY_BITS = int(os.environ.get("REPRO_DISTRIBUTED_BITS", "256"))

N_RECORDS = 10
DIMENSIONS = 2
DISTANCE_BITS = 7
K = 2


@pytest.fixture(scope="module")
def dataset():
    return synthetic_uniform(n_records=N_RECORDS, dimensions=DIMENSIONS,
                             distance_bits=DISTANCE_BITS, seed=5)


@pytest.fixture(scope="module")
def owner(dataset):
    return DataOwner(dataset, key_size=KEY_BITS, rng=Random(20140709))


@pytest.fixture(scope="module")
def supervisor():
    """Daemons with both the metrics listener and the profiler armed."""
    with LocalSupervisor(metrics=True, profile=True) as sup:
        yield sup


@pytest.fixture(scope="module")
def remote(supervisor, owner):
    return supervisor.provision_from_owner(owner, seed=11)


@pytest.fixture(scope="module")
def client(owner, dataset):
    return QueryClient(owner.public_key, dataset.dimensions, rng=Random(18))


def run_query(remote, client, mode="secure"):
    """The report of one ``transport.query``."""
    store = RemoteStore(remote, mode=mode)
    shares = store.run_with_report(client.encrypt_query([3, 4]), K)
    assert len(client.reconstruct(shares)) == K
    assert store.last_report is not None
    return store.last_report


class TestDistributedCostAttribution:
    def test_c1_rows_sum_to_wall_time(self, remote, client):
        report = run_query(remote, client)
        rows = report.cost_breakdown
        assert rows, "distributed report carries no cost rows"
        # In distributed mode only C1's rows partition the wall clock —
        # C2's busy time overlaps C1's protocol-round wait time.
        c1_seconds = sum(row["seconds"] for row in rows
                        if row["party"] == "C1")
        assert c1_seconds == pytest.approx(report.wall_time_seconds,
                                           rel=0.01), (
            f"C1 phase seconds {c1_seconds} vs wall "
            f"{report.wall_time_seconds}")

    def test_c2_rows_match_stitched_stats_exactly(self, remote, client):
        report = run_query(remote, client)
        c2_rows = [row for row in report.cost_breakdown
                   if row["party"] == "C2"]
        assert c2_rows, "no C2-attributed phases in distributed mode"
        assert any(row["seconds"] > 0 for row in c2_rows)

        totals: dict[str, float] = {}
        for row in c2_rows:
            for op, count in row["ops"].items():
                totals[op] = totals.get(op, 0) + count
        stats = report.stats
        assert totals.get("decryptions", 0) == stats.c2_decryptions
        assert totals.get("encryptions", 0) == stats.c2_encryptions
        assert totals.get("exponentiations", 0) == stats.c2_exponentiations
        assert_stats_are_row_sums(report)  # ... and C1's side likewise

    def test_phases_cover_the_secure_protocol(self, remote, client):
        report = run_query(remote, client)
        c1_phases = {row["phase"] for row in report.cost_breakdown
                     if row["party"] == "C1"}
        assert {"scan", "select"} <= c1_phases
        assert set(report.phase_seconds) >= c1_phases

    def test_basic_mode_also_attributes(self, remote, client):
        report = run_query(remote, client, mode="basic")
        parties = {row["party"] for row in report.cost_breakdown}
        assert parties == {"C1", "C2"}


class TestLiveProfileEndpoint:
    def test_profile_scrape_during_query_contains_protocol_frame(
            self, remote, client):
        address = remote.stats()["c1"]["metrics_address"]
        outcome: dict = {}

        def query():
            outcome["report"] = run_query(remote, client)

        worker = threading.Thread(target=query)
        worker.start()
        try:
            with urllib.request.urlopen(f"{address}/profile?seconds=2",
                                        timeout=30) as response:
                assert response.status == 200
                collapsed = response.read().decode("utf-8")
        finally:
            worker.join(timeout=120)
        assert "report" in outcome, "query thread did not finish"
        assert collapsed.strip(), "/profile returned no stacks"
        for line in collapsed.strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0
        assert any("daemon" in line or "sknn" in line.lower()
                   or "protocol" in line
                   for line in collapsed.splitlines()), (
            "no protocol frame captured during a live query")

    def test_daemon_stats_reports_armed_profiler(self, remote):
        stats = remote.stats()
        for role in ("c1", "c2"):
            profiler = stats[role].get("profiler")
            assert profiler and profiler["running"], (
                f"{role} daemon does not report an armed profiler")
