"""Paper-scale projection builders shared by the benchmark modules.

Each function returns an :class:`~repro.analysis.reporting.ExperimentSeries`
whose rows correspond one-to-one to a figure of the paper's Section 5,
computed as (exact operation counts) x (calibrated per-operation timings at
the requested key size).
"""

from __future__ import annotations

from repro.analysis.calibration import Calibrator
from repro.analysis.cost_model import (
    sknn_basic_counts,
    sknn_secure_breakdown,
    sknn_secure_counts,
    sknn_secure_phases,
)
from repro.analysis.reporting import ExperimentSeries

__all__ = [
    "figure_2a_series",
    "figure_2c_series",
    "figure_2d_series",
    "figure_2f_series",
    "figure_3_series",
    "sminn_share_series",
]


def figure_2a_series(calibrator: Calibrator, key_size: int, n_values: list[int],
                     m_values: list[int], k: int = 5) -> ExperimentSeries:
    """Figures 2(a)/2(b): SkNN_b time vs. n for several m, fixed k and K."""
    series = ExperimentSeries(
        title=f"SkNNb: time vs n (k={k}, K={key_size})",
        x_label="n",
        x_values=list(n_values),
        y_label="time (seconds)",
    )
    for dimensions in m_values:
        times = [
            calibrator.predict_seconds(sknn_basic_counts(n, dimensions, k), key_size)
            for n in n_values
        ]
        series.add_series(f"m={dimensions}", times)
    return series


def figure_2c_series(calibrator: Calibrator, key_sizes: list[int],
                     k_values: list[int], n: int = 2000,
                     dimensions: int = 6) -> ExperimentSeries:
    """Figure 2(c): SkNN_b time vs. k for both key sizes (n=2000, m=6)."""
    series = ExperimentSeries(
        title=f"SkNNb: time vs k (n={n}, m={dimensions})",
        x_label="k",
        x_values=list(k_values),
        y_label="time (seconds)",
    )
    for key_size in key_sizes:
        times = [
            calibrator.predict_seconds(sknn_basic_counts(n, dimensions, k), key_size)
            for k in k_values
        ]
        series.add_series(f"K={key_size}", times)
    return series


def figure_2d_series(calibrator: Calibrator, key_size: int, k_values: list[int],
                     l_values: list[int], n: int = 2000,
                     dimensions: int = 6) -> ExperimentSeries:
    """Figures 2(d)/2(e): SkNN_m time vs. k for several l (n=2000, m=6),
    SMIN's DGK operations priced at the DGK key's costs."""
    series = ExperimentSeries(
        title=f"SkNNm: time vs k (n={n}, m={dimensions}, K={key_size})",
        x_label="k",
        x_values=list(k_values),
        y_label="time (minutes)",
    )
    for bit_length in l_values:
        times = [
            calibrator.predict_seconds(
                sknn_secure_phases(n, dimensions, k, bit_length)["total"],
                key_size) / 60.0
            for k in k_values
        ]
        series.add_series(f"l={bit_length}", times)
    return series


def figure_2f_series(calibrator: Calibrator, key_size: int, k_values: list[int],
                     n: int = 2000, dimensions: int = 6,
                     bit_length: int = 6) -> ExperimentSeries:
    """Figure 2(f): SkNN_b vs SkNN_m time vs. k (n=2000, m=6, l=6, K=512).

    The figure compares the paper's two printed protocols, so both series
    are their textbook models (``sknn_basic_counts`` and
    ``sknn_secure_counts(textbook=True)``).  The implemented SkNN_m is
    about 10x the textbook SkNN_b at k = 5 (the paper measured 16x).
    """
    series = ExperimentSeries(
        title=f"SkNNb vs SkNNm: time vs k (n={n}, m={dimensions}, "
              f"l={bit_length}, K={key_size})",
        x_label="k",
        x_values=list(k_values),
        y_label="time (minutes)",
    )
    series.add_series("SkNNb", [
        calibrator.predict_seconds(sknn_basic_counts(n, dimensions, k),
                                   key_size) / 60.0
        for k in k_values
    ])
    series.add_series("SkNNm", [
        calibrator.predict_seconds(
            sknn_secure_counts(n, dimensions, k, bit_length, textbook=True),
            key_size) / 60.0
        for k in k_values
    ])
    return series


def figure_3_series(calibrator: Calibrator, key_size: int, n_values: list[int],
                    workers: int = 6, dimensions: int = 6,
                    k: int = 5) -> ExperimentSeries:
    """Figure 3: serial vs parallel SkNN_b time vs. n (m=6, k=5, K=512).

    The parallel projection divides the parallelizable distance phase by the
    worker count, mirroring the record-level independence the paper exploits;
    the (tiny) selection and delivery phases are left serial.
    """
    series = ExperimentSeries(
        title=f"SkNNb serial vs parallel ({workers} workers), m={dimensions}, "
              f"k={k}, K={key_size}",
        x_label="n",
        x_values=list(n_values),
        y_label="time (seconds)",
    )
    serial_times = [
        calibrator.predict_seconds(sknn_basic_counts(n, dimensions, k), key_size)
        for n in n_values
    ]
    series.add_series("serial", serial_times)
    series.add_series("parallel", [value / workers for value in serial_times])
    return series


def sminn_share_series(k_values: list[int], n: int = 2000, dimensions: int = 6,
                       bit_length: int = 6) -> ExperimentSeries:
    """Section 5.2: the share of SkNN_m cost spent inside SMIN_n, vs. k."""
    series = ExperimentSeries(
        title=f"SMINn share of SkNNm cost (n={n}, m={dimensions}, l={bit_length})",
        x_label="k",
        x_values=list(k_values),
        y_label="share of total operations (%)",
    )
    shares = []
    for k in k_values:
        breakdown = sknn_secure_breakdown(n, dimensions, k, bit_length)
        shares.append(100.0 * breakdown["sminn"].total / breakdown["total"].total)
    series.add_series("SMINn share", shares)
    return series
