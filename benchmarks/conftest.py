"""Shared fixtures and helpers for the benchmark harness.

Every figure and table of the paper's evaluation (Section 5) has one module in
this directory.  Each module does two things:

1. **Measured runs** — pytest-benchmark measurements of the real protocols at
   reduced scale (small ``n``, 256-bit keys) that validate the constant
   factors on this machine, and
2. **Projected series** — the full parameter grid of the corresponding paper
   figure, obtained by combining the exact operation-count model
   (:mod:`repro.analysis.cost_model`) with per-operation timings calibrated at
   the paper's key sizes (512/1024 bits).  The projected tables are written to
   ``benchmarks/results/`` and summarized in EXPERIMENTS.md.

Rationale: the paper's own numbers come from a C implementation on a 6-core
Xeon; a pure-Python rerun of, e.g., SkNN_m at n=2000, k=25 would take days.
The projection preserves the quantities the figures are about — the *scaling*
with n, m, k, l and K — while the measured runs pin down absolute constants.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

import pytest

from repro.analysis.calibration import Calibrator
from repro.bench import BenchHistory, numeric_leaves, provenance_block
from repro.core.cloud import FederatedCloud
from repro.core.roles import DataOwner, QueryClient
from repro.crypto.backend import BACKEND_ENV_VAR, set_backend
from repro.crypto.paillier import PaillierKeyPair, generate_keypair
from repro.db.datasets import synthetic_uniform
from repro.telemetry import get_registry

#: Directory where every bench writes its paper-style result tables.
RESULTS_DIR = Path(__file__).parent / "results"

#: Append-only benchmark-history trajectories (one JSONL per bench).
HISTORY_DIR = Path(__file__).parent / "history"

#: Key size used for the *measured* (reduced-scale) benchmark runs.
MEASURED_KEY_BITS = 256

#: Paper parameter grids (Section 5).
PAPER_N_VALUES = [2000, 4000, 6000, 8000, 10000]
PAPER_M_VALUES = [6, 12, 18]
PAPER_K_VALUES = [5, 10, 15, 20, 25]
PAPER_L_VALUES = [6, 12]
PAPER_KEY_SIZES = [512, 1024]


@pytest.fixture(scope="session")
def calibrator() -> Calibrator:
    """Session-wide calibrator; key generation and timing happen once."""
    return Calibrator(samples=15)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """The benchmarks/results directory (created on first use)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def measured_keypair() -> PaillierKeyPair:
    """Key pair used by all measured (reduced-scale) runs."""
    return generate_keypair(MEASURED_KEY_BITS, Random(5150))


@pytest.fixture
def python_backend():
    """Pin the pure-Python bigint backend for one test.

    For benches whose gates are about the python backend's own algorithms
    (comb vs ``pow``, inverse vs ``c**(N-1)``) or were sized on its unit
    costs (the 5% overhead gates of a 20 ms warm query).  Pinned through the environment variable so
    daemon subprocesses resolve it too, and history rows carry
    ``crypto_backend: python``.  A key that already encrypted a batch keeps
    the exponentiator of the backend active then: build keys inside the test.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(BACKEND_ENV_VAR, "python")
        set_backend(None)
        yield
    set_backend(None)


def write_result(results_dir: Path, name: str, text: str) -> Path:
    """Write one result table to ``benchmarks/results/<name>`` and return its path."""
    path = results_dir / name
    path.write_text(text, encoding="utf-8")
    return path


def write_bench_json(results_dir: Path, name: str, payload: dict) -> Path:
    """Write machine-readable benchmark output ``BENCH_<name>.json``.

    Every bench emits one of these alongside its human-readable txt table so
    the performance trajectory is trackable across PRs (and diffable in CI
    artifacts).  The common provenance block (git sha, crypto backend,
    interpreter, key size) is stamped automatically; ``payload`` carries the
    bench-specific params, wall-clock numbers and operation counters.  The
    numeric timings are additionally appended as one record to the
    append-only ``benchmarks/history/<name>.jsonl`` trajectory, which
    ``repro bench check`` gates against its rolling baseline.
    """
    params = payload.get("params") or {}
    key_size = params.get("key_size", MEASURED_KEY_BITS)
    provenance = provenance_block(
        key_size=key_size if isinstance(key_size, int) else None)
    record = {
        "bench": name,
        "provenance": provenance,
        "telemetry": {
            family_name: family["values"]
            for family_name, family in get_registry().snapshot().items()
            if family["values"]
        },
    }
    record.update(payload)
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    metrics = numeric_leaves(payload.get("timings") or {})
    if metrics:
        BenchHistory(HISTORY_DIR).append(name, {
            "bench": name,
            "provenance": provenance,
            "params": params,
            "metrics": metrics,
        })
    return path


def deploy_measured_system(keypair: PaillierKeyPair, n_records: int,
                           dimensions: int, distance_bits: int, seed: int = 0):
    """Stand up a federated cloud + client over a synthetic table.

    Returns ``(cloud, client, table)`` ready for protocol benchmarking.
    """
    table = synthetic_uniform(n_records=n_records, dimensions=dimensions,
                              distance_bits=distance_bits, seed=seed)
    owner = DataOwner(table, keypair=keypair, rng=Random(seed + 1))
    cloud = FederatedCloud.deploy(keypair, rng=Random(seed + 2))
    cloud.c1.host_database(owner.encrypt_database())
    client = QueryClient(keypair.public_key, table.dimensions, rng=Random(seed + 3))
    return cloud, client, table
