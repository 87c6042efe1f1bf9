"""Reporting helpers: experiment series, plain-text tables, Markdown export.

The benchmark harness regenerates every figure of the paper as a *data
series* (x values, one or more named y series).  Matplotlib is deliberately
not a dependency — the harness prints aligned text tables (the same rows one
would plot) and can emit Markdown for inclusion in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.exceptions import ConfigurationError

__all__ = ["ExperimentSeries", "format_table", "format_markdown_table",
           "ascii_plot", "trace_timeline"]


@dataclass
class ExperimentSeries:
    """One figure's worth of data: an x axis and one or more named y series.

    Attributes:
        title: figure title, e.g. ``"Figure 2(a): SkNNb, k=5, K=512"``.
        x_label: label of the x axis (e.g. ``"n"``).
        x_values: the x axis values.
        series: mapping from series label (e.g. ``"m=6"``) to y values.
        y_label: label of the y axis (e.g. ``"time (seconds)"``).
    """

    title: str
    x_label: str
    x_values: list[float] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)
    y_label: str = "time (seconds)"

    def add_series(self, label: str, values: Sequence[float]) -> None:
        """Add one named y series (must match the x axis length)."""
        if len(values) != len(self.x_values):
            raise ConfigurationError(
                f"series {label!r} has {len(values)} points, x axis has "
                f"{len(self.x_values)}"
            )
        self.series[label] = list(values)

    def rows(self) -> list[dict[str, float]]:
        """Row-wise view: one dictionary per x value."""
        result = []
        for index, x_value in enumerate(self.x_values):
            row: dict[str, float] = {self.x_label: x_value}
            for label, values in self.series.items():
                row[label] = values[index]
            result.append(row)
        return result

    def to_text(self) -> str:
        """Aligned plain-text rendering (what the bench prints)."""
        header = f"== {self.title} ==\n"
        return header + format_table(self.rows())

    def to_markdown(self) -> str:
        """Markdown rendering for EXPERIMENTS.md."""
        header = f"### {self.title}\n\n"
        return header + format_markdown_table(self.rows())


def _format_value(value: object) -> str:
    """Human-friendly formatting for table cells."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        if abs(value) >= 1:
            return f"{value:.3f}"
        return f"{value:.6f}"
    return str(value)


def format_table(rows: Iterable[dict[str, object]]) -> str:
    """Render rows (list of dicts) as an aligned plain-text table."""
    rows = list(rows)
    if not rows:
        return "(no data)\n"
    columns = list(rows[0].keys())
    rendered = [[_format_value(row.get(column, "")) for column in columns]
                for row in rows]
    widths = [max(len(column), *(len(line[i]) for line in rendered))
              for i, column in enumerate(columns)]
    lines = [
        "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns)),
        "  ".join("-" * widths[i] for i in range(len(columns))),
    ]
    for line in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(lines) + "\n"


def format_markdown_table(rows: Iterable[dict[str, object]]) -> str:
    """Render rows (list of dicts) as a Markdown table."""
    rows = list(rows)
    if not rows:
        return "(no data)\n"
    columns = list(rows[0].keys())
    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(_format_value(row.get(column, "")) for column in columns)
            + " |"
        )
    return "\n".join(lines) + "\n"


def trace_timeline(trace: dict, width: int = 48) -> str:
    """ASCII Gantt rendering of one ``SkNNRunReport.trace`` payload.

    Each span is one line: its bar is positioned on a shared time axis
    spanning the whole trace, so cross-cloud timelines (C1 protocol rounds
    interleaved with C2 handler dispatches) read at a glance.
    """
    spans = trace.get("spans") or []
    if not spans:
        return "(empty trace)\n"
    start = min(span.get("start", 0.0) for span in spans)
    end = max(span.get("start", 0.0) + span.get("duration", 0.0)
              for span in spans)
    total = max(end - start, 1e-9)
    name_width = min(max(len(span.get("name", "")) for span in spans), 36)
    lines = [f"trace {trace.get('trace_id', '?')} "
             f"({len(spans)} spans, {total * 1000:.1f} ms)"]
    for span in sorted(spans, key=lambda item: item.get("start", 0.0)):
        offset = int((span.get("start", 0.0) - start) / total * width)
        length = max(int(span.get("duration", 0.0) / total * width), 1)
        bar = " " * offset + "#" * min(length, width - offset)
        lines.append(
            f"{span.get('party', '?'):>3} "
            f"{span.get('name', ''):<{name_width}.{name_width}} "
            f"|{bar:<{width}}| {span.get('duration', 0.0) * 1000:8.2f} ms")
    return "\n".join(lines) + "\n"


def ascii_plot(series: ExperimentSeries, width: int = 60, height: int = 12) -> str:
    """Very small ASCII line plot, enough to eyeball a figure's shape.

    Each series is drawn with a distinct marker; the y axis is linear and
    shared across series, matching how the paper's figures overlay curves.
    """
    if not series.x_values or not series.series:
        return "(no data)\n"
    markers = "*o+x#@%"
    all_values = [value for values in series.series.values() for value in values]
    y_min, y_max = min(all_values), max(all_values)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = min(series.x_values), max(series.x_values)
    if x_max == x_min:
        x_max = x_min + 1.0

    grid = [[" " for _ in range(width)] for _ in range(height)]
    for series_index, (label, values) in enumerate(series.series.items()):
        marker = markers[series_index % len(markers)]
        for x_value, y_value in zip(series.x_values, values):
            column = int((x_value - x_min) / (x_max - x_min) * (width - 1))
            row = int((y_value - y_min) / (y_max - y_min) * (height - 1))
            grid[height - 1 - row][column] = marker

    legend = "   ".join(
        f"{markers[i % len(markers)]} {label}"
        for i, label in enumerate(series.series)
    )
    lines = [f"{series.title}  [{series.y_label}: {y_min:.3g} .. {y_max:.3g}]"]
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f" {series.x_label}: {x_min:g} .. {x_max:g}    {legend}")
    return "\n".join(lines) + "\n"
