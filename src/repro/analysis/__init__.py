"""Analysis: analytic cost model, runtime calibration, experiment reporting."""

from repro.analysis import cost_model
from repro.analysis.calibration import Calibrator, PaillierTimings
from repro.analysis.cost_model import *  # noqa: F401,F403 - its __all__
from repro.analysis.projections import (
    figure_2a_series,
    figure_2c_series,
    figure_2d_series,
    figure_2f_series,
    figure_3_series,
    sminn_share_series,
)
from repro.analysis.reporting import (
    ExperimentSeries,
    ascii_plot,
    format_table,
)

__all__ = [
    *cost_model.__all__,
    "Calibrator",
    "PaillierTimings",
    "ExperimentSeries",
    "format_table",
    "ascii_plot",
    "figure_2a_series",
    "figure_2c_series",
    "figure_2d_series",
    "figure_2f_series",
    "figure_3_series",
    "sminn_share_series",
]
