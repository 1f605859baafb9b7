"""Plain-text rendering and CSV export helpers for experiment output."""

from __future__ import annotations

import csv
import os
from typing import Any, List, Sequence, Tuple

#: One CSV an experiment exports: ``(filename, headers, rows)``.  Each
#: study's ``tables(result)`` returns its list of these.
Table = Tuple[str, Sequence[str], List[Sequence[Any]]]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    if not headers:
        raise ValueError("need at least one column")
    cells = [[str(value) for value in row] for row in rows]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: str = "",
    width: int = 50,
    unit: str = "",
) -> str:
    """Render a horizontal ASCII bar chart (for figure-style output)."""
    if len(labels) != len(values):
        raise ValueError("labels and values length mismatch")
    if not values:
        raise ValueError("nothing to chart")
    if width < 1:
        raise ValueError("width must be >= 1")
    peak = max(values)
    if peak <= 0:
        peak = 1.0
    label_width = max(len(label) for label in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(0, round(value / peak * width))
        lines.append(f"{label.ljust(label_width)} | {bar} {value:.3g}{unit}")
    return "\n".join(lines)


def format_xy_chart(
    series: "dict[str, tuple]",
    width: int = 60,
    height: int = 16,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render an ASCII scatter/line chart of one or more (xs, ys) series.

    Each series plots with the first letter of its label; overlapping
    points show ``*``.  Useful for terminal renditions of Figs. 4/5.
    """
    if not series:
        raise ValueError("nothing to chart")
    if width < 8 or height < 4:
        raise ValueError("chart too small")
    points = []
    for label, (xs, ys) in series.items():
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r} has mismatched lengths")
        if not xs:
            raise ValueError(f"series {label!r} is empty")
        points.extend((x, y) for x, y in zip(xs, ys))
    x_low = min(x for x, _ in points)
    x_high = max(x for x, _ in points)
    y_low = min(y for _, y in points)
    y_high = max(y for _, y in points)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for label, (xs, ys) in series.items():
        marker = label[0]
        for x, y in zip(xs, ys):
            col = round((x - x_low) / x_span * (width - 1))
            row = height - 1 - round((y - y_low) / y_span * (height - 1))
            current = grid[row][col]
            grid[row][col] = marker if current in (" ", marker) else "*"
    lines = [title] if title else []
    if y_label:
        lines.append(y_label)
    lines.append(f"{y_high:10.3g} +" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{y_low:10.3g} +" + "".join(grid[-1]))
    axis = f"{x_low:<10.3g}" + " " * max(0, width - 18) + f"{x_high:>8.3g}"
    lines.append(" " * 12 + axis)
    if x_label:
        lines.append(" " * 12 + x_label)
    legend = "   ".join(f"{label[0]} = {label}" for label in series)
    lines.append("legend: " + legend)
    return "\n".join(lines)


def write_tables(directory: str, tables: Sequence[Table]) -> List[str]:
    """Write each table to ``directory/<filename>`` (the directory is
    created if needed) and return the paths, in order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for filename, headers, rows in tables:
        path = os.path.join(directory, filename)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(headers)
            writer.writerows(rows)
        paths.append(path)
    return paths


__all__ = ["Table", "format_bar_chart", "format_table", "format_xy_chart",
           "write_tables"]
