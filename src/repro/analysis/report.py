"""Plain-text reporting helpers used by the benchmark harness.

The paper's "evaluation" consists of figures and qualitative claims, so the
benchmarks print small tables (who examined how many tuples, which recursion
was classified how) rather than plots.  This module keeps that formatting in
one place: fixed-width tables, comparison ratios and simple series.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

Cell = Union[str, int, float, bool, None]


def format_cell(value: Cell) -> str:
    """Render one table cell: floats get 3 significant decimals, bools yes/no."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]], title: str = "") -> str:
    """A fixed-width text table.

    ``rows`` is an iterable of sequences aligned with ``headers``.  Columns are
    right-aligned except the first, which is left-aligned (it usually names the
    configuration or strategy).
    """
    rendered_rows = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        parts = []
        for index, cell in enumerate(cells):
            if index == 0:
                parts.append(cell.ljust(widths[index]))
            else:
                parts.append(cell.rjust(widths[index]))
        return "  ".join(parts)

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_line(list(headers)))
    lines.append(render_line(["-" * width for width in widths]))
    for row in rendered_rows:
        lines.append(render_line(row))
    return "\n".join(lines)


def format_comparison(
    label: str,
    baseline: float,
    candidate: float,
    metric: str = "tuples examined",
) -> str:
    """One line stating who wins and by what factor (the paper-shape statement)."""
    if candidate == 0 and baseline == 0:
        return f"{label}: both strategies report 0 {metric}"
    if candidate == 0:
        return f"{label}: candidate reports 0 {metric} (baseline {format_cell(baseline)})"
    ratio = baseline / candidate
    direction = "x less" if ratio >= 1 else "x more"
    factor = ratio if ratio >= 1 else 1 / ratio
    return f"{label}: {format_cell(factor)}{direction} {metric} than the baseline"


def stats_row(label: str, stats: Mapping[str, float], keys: Sequence[str]) -> List[Cell]:
    """Build a table row from an ``EvaluationStats.as_dict()`` mapping."""
    return [label] + [stats.get(key) for key in keys]
