"""Figure 2(e): SkNN_m computation time vs. k and l at K = 1024 bits.

Paper observation to reproduce: the same near-linear growth in k and l as
Figure 2(d), shifted up by roughly 7x because of the larger key (e.g. 22.85
minutes at K=512 vs 157.17 minutes at K=1024 for k=10, l=6).

Measured here: one reduced-scale SkNN_m run at 256-bit and one at 512-bit keys
to exhibit the key-size slowdown on the secure protocol itself.  Projected:
the paper grid at K=1024 plus the projected K=512 vs K=1024 ratio at k=10.
"""

from __future__ import annotations

from random import Random

import pytest

from benchmarks.conftest import (
    PAPER_K_VALUES,
    PAPER_L_VALUES,
    deploy_measured_system,
    write_bench_json,
    write_result,
)
from benchmarks.projections import figure_2d_series
from repro.analysis.cost_model import sknn_secure_phases
from repro.analysis.reporting import ascii_plot, format_table
from repro.core.sknn_secure import SkNNSecure
from repro.crypto.paillier import generate_keypair

MEASURED_N = 8
MEASURED_M = 3
MEASURED_L = 8


@pytest.mark.parametrize("key_size", [256, 512])
def test_fig2e_measured_sknnm_key_size(benchmark, key_size):
    """Measured SkNN_m at two key sizes on the same tiny workload."""
    keypair = generate_keypair(key_size, Random(key_size + 1))
    cloud, client, _ = deploy_measured_system(
        keypair, n_records=MEASURED_N, dimensions=MEASURED_M,
        distance_bits=MEASURED_L, seed=300 + key_size)
    protocol = SkNNSecure(cloud, distance_bits=MEASURED_L)
    encrypted_query = client.encrypt_query([1] * MEASURED_M)

    benchmark.extra_info.update({
        "figure": "2e", "protocol": "SkNNm", "n": MEASURED_N, "m": MEASURED_M,
        "k": 1, "l": MEASURED_L, "key_size": key_size, "kind": "measured",
    })
    benchmark.pedantic(lambda: protocol.run(encrypted_query, 1),
                       rounds=1, iterations=1, warmup_rounds=0)


def test_fig2e_projected_paper_scale(benchmark, calibrator, results_dir):
    """Projected Figure 2(e): k and l sweep at n=2000, m=6, K=1024."""
    def build():
        return figure_2d_series(calibrator, key_size=1024,
                                k_values=PAPER_K_VALUES, l_values=PAPER_L_VALUES)

    series = benchmark.pedantic(build, rounds=1, iterations=1)

    # Paper's spot check: k=10, l=6 at K=512 vs K=1024 (22.85 vs 157.17 min).
    cost = sknn_secure_phases(2000, 6, 10, 6)["total"]
    minutes_512 = calibrator.predict_seconds(cost, 512) / 60.0
    minutes_1024 = calibrator.predict_seconds(cost, 1024) / 60.0
    comparison = format_table([{
        "config": "n=2000, m=6, k=10, l=6",
        "projected K=512 (min)": minutes_512,
        "projected K=1024 (min)": minutes_1024,
        "ratio": minutes_1024 / minutes_512,
        "paper ratio": 157.17 / 22.85,
    }])
    text = series.to_text() + "\n" + ascii_plot(series) + "\n" + comparison
    write_result(results_dir, "fig2e_sknnm_k_l_K1024.txt", text)
    write_bench_json(results_dir, "fig2e_sknnm_k_l_K1024", {
        "kind": "projected", "figure": "2e",
        "params": {"n": 2000, "m": 6, "key_size": 1024,
                   "k_values": PAPER_K_VALUES, "l_values": PAPER_L_VALUES},
        "ratio_1024_over_512": minutes_1024 / minutes_512,
        "rows": series.rows(),
    })
    benchmark.extra_info.update({"figure": "2e", "kind": "projected",
                                 "ratio_1024_over_512": minutes_1024 / minutes_512})
    assert 4.0 < minutes_1024 / minutes_512 < 12.0
