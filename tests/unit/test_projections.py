"""Unit tests for the paper-scale projection builders."""

from __future__ import annotations

import pytest

from repro.analysis.calibration import Calibrator, PaillierTimings
from repro.analysis.projections import (
    figure_2a_series,
    figure_2c_series,
    figure_2d_series,
    figure_2f_series,
    figure_3_series,
    sminn_share_series,
)


class _FixedCalibrator(Calibrator):
    """Calibrator stub returning unit per-operation costs (no measurement).

    Projection shapes are ratios of operation counts, so unit timings (DGK
    operations a tenth of Paillier's) are enough to test them and keep this
    module free of real key generation.
    """

    def __init__(self) -> None:
        super().__init__(samples=3)

    def timings_for(self, key_size: int) -> PaillierTimings:  # noqa: D102
        scale = (key_size / 512) ** 3  # cubic growth in the modulus size
        return PaillierTimings(key_size=key_size,
                               encryption_seconds=1e-3 * scale,
                               decryption_seconds=1e-3 * scale,
                               exponentiation_seconds=1e-3 * scale,
                               dgk_encryption_seconds=1e-4 * scale,
                               dgk_decryption_seconds=1e-4 * scale,
                               dgk_exponentiation_seconds=1e-4 * scale)


@pytest.fixture(scope="module")
def calibrator() -> Calibrator:
    return _FixedCalibrator()


class TestFigure2aSeries:
    def test_linear_in_n_and_m(self, calibrator):
        series = figure_2a_series(calibrator, key_size=512,
                                  n_values=[2000, 4000], m_values=[6, 12])
        rows = series.rows()
        assert rows[1]["m=6"] == pytest.approx(2 * rows[0]["m=6"], rel=0.01)
        assert rows[0]["m=12"] == pytest.approx(2 * rows[0]["m=6"], rel=0.05)

    def test_title_mentions_parameters(self, calibrator):
        series = figure_2a_series(calibrator, key_size=512,
                                  n_values=[2000], m_values=[6])
        assert "K=512" in series.title


class TestFigure2cSeries:
    def test_flat_in_k_and_gap_between_key_sizes(self, calibrator):
        series = figure_2c_series(calibrator, key_sizes=[512, 1024],
                                  k_values=[5, 25])
        rows = series.rows()
        assert rows[1]["K=512"] / rows[0]["K=512"] < 1.01
        assert rows[0]["K=1024"] > 4 * rows[0]["K=512"]


class TestFigure2dSeries:
    def test_grows_with_k_and_l(self, calibrator):
        series = figure_2d_series(calibrator, key_size=512,
                                  k_values=[5, 25], l_values=[6, 12])
        rows = series.rows()
        assert rows[1]["l=6"] > 3 * rows[0]["l=6"]
        assert rows[0]["l=12"] > rows[0]["l=6"]


class TestFigure2fSeries:
    def test_secure_dominates_basic(self, calibrator):
        series = figure_2f_series(calibrator, key_size=512, k_values=[5, 25])
        rows = series.rows()
        assert all(row["SkNNm"] > 10 * row["SkNNb"] for row in rows)


class TestFigure3Series:
    def test_parallel_is_serial_divided_by_workers(self, calibrator):
        series = figure_3_series(calibrator, key_size=512,
                                 n_values=[2000, 10000], workers=6)
        rows = series.rows()
        for row in rows:
            assert row["serial"] / row["parallel"] == pytest.approx(6.0)


class TestSminnShareSeries:
    def test_share_grows_with_k(self):
        series = sminn_share_series([5, 25])
        shares = series.series["SMINn share"]
        assert 0 < shares[0] < 100
        assert shares[1] > shares[0]
