"""Plain-text reporting helpers for the benchmark drivers.

Benchmarks print the same rows/series as the paper's tables and figures so a
reader can eyeball the reproduced trends; these helpers keep that formatting
consistent.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "format_series"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Render a simple fixed-width text table."""
    columns = len(headers)
    normalized_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in normalized_rows:
        for index in range(columns):
            value = row[index] if index < len(row) else ""
            widths[index] = max(widths[index], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in normalized_rows:
        lines.append(
            "  ".join(
                (row[index] if index < len(row) else "").ljust(widths[index])
                for index in range(columns)
            )
        )
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Render one x-column plus one column per named series (a 'figure' as text)."""
    headers = [x_label, *series.keys()]
    rows = []
    for index, x in enumerate(x_values):
        row = [x]
        for values in series.values():
            row.append(values[index] if index < len(values) else "")
        rows.append(row)
    return format_table(headers, rows, title=title)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1e6 or abs(cell) < 1e-3:
            return f"{cell:.3e}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)
