"""Plain-text tables for benchmark output.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import Any, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
    float_format: str = "{:.2f}",
) -> str:
    """Render an aligned monospace table."""
    def fmt(cell: Any) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in text_rows)
    return "\n".join(parts)

