"""Unit tests for the reporting helpers (tables, series, ASCII plots)."""

from __future__ import annotations

import pytest

from repro.analysis.reporting import (
    ExperimentSeries,
    ascii_plot,
    format_table,
)
from repro.exceptions import ConfigurationError


class TestExperimentSeries:
    def make_series(self) -> ExperimentSeries:
        series = ExperimentSeries(title="Figure X", x_label="n",
                                  x_values=[1, 2, 3])
        series.add_series("m=6", [10.0, 20.0, 30.0])
        series.add_series("m=12", [15.0, 30.0, 45.0])
        return series

    def test_add_series_validates_length(self):
        series = ExperimentSeries(title="t", x_label="n", x_values=[1, 2])
        with pytest.raises(ConfigurationError):
            series.add_series("bad", [1.0])

    def test_rows_layout(self):
        rows = self.make_series().rows()
        assert rows[0] == {"n": 1, "m=6": 10.0, "m=12": 15.0}
        assert len(rows) == 3

    def test_to_text_contains_title_and_values(self):
        text = self.make_series().to_text()
        assert "Figure X" in text
        assert "m=6" in text
        assert "30" in text


class TestFormatters:
    def test_format_table_empty(self):
        assert "(no data)" in format_table([])

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 100, "b": 0.0001}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_format_table_large_and_small_floats(self):
        text = format_table([{"v": 123456.789}, {"v": 0.000123}])
        assert "123,456.8" in text
        assert "0.000123" in text


class TestAsciiPlot:
    def test_empty_series(self):
        series = ExperimentSeries(title="t", x_label="n")
        assert "(no data)" in ascii_plot(series)

    def test_plot_contains_markers_and_legend(self):
        series = ExperimentSeries(title="Fig", x_label="n", x_values=[0, 1, 2, 3])
        series.add_series("a", [0.0, 1.0, 2.0, 3.0])
        series.add_series("b", [3.0, 2.0, 1.0, 0.0])
        plot = ascii_plot(series, width=20, height=6)
        assert "*" in plot
        assert "o" in plot
        assert "a" in plot and "b" in plot

    def test_plot_with_constant_series(self):
        series = ExperimentSeries(title="Fig", x_label="n", x_values=[1, 1])
        series.add_series("a", [5.0, 5.0])
        plot = ascii_plot(series)
        assert "Fig" in plot
