"""Plain-text table and sparkline rendering for experiment output.

The report prints the same rows the paper's tables report; these
helpers keep that output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["format_table", "ascii_curve"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table.

    Cells are stringified; floats are shown as given (format upstream
    for precision control).
    """
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(separator)
    for row in text_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_curve(
    values: Sequence[float],
    width: int = 60,
    height: int = 12,
    y_min: float = 0.0,
    y_max: float = 1.0,
    title: Optional[str] = None,
) -> str:
    """A terminal rendering of a learning curve (Figure 4 style).

    The x-axis is compressed to ``width`` columns by averaging; each
    column's value is drawn as a '*' on a ``height``-row grid.
    """
    if not values:
        raise ValueError("cannot plot an empty series")
    if y_max <= y_min:
        raise ValueError("y_max must exceed y_min")
    # Compress to `width` columns.
    columns: List[float] = []
    n = len(values)
    for col in range(min(width, n)):
        lo = col * n // min(width, n)
        hi = max(lo + 1, (col + 1) * n // min(width, n))
        chunk = values[lo:hi]
        columns.append(sum(chunk) / len(chunk))
    grid = [[" "] * len(columns) for _ in range(height)]
    for col, value in enumerate(columns):
        clamped = min(max(value, y_min), y_max)
        level = (clamped - y_min) / (y_max - y_min)
        row = height - 1 - int(round(level * (height - 1)))
        grid[row][col] = "*"
    lines: List[str] = []
    if title:
        lines.append(title)
    for index, row in enumerate(grid):
        label = y_max - (y_max - y_min) * index / (height - 1)
        lines.append(f"{label:5.2f} |" + "".join(row))
    lines.append("      +" + "-" * len(columns))
    lines.append(f"       iterations 1..{n}")
    return "\n".join(lines)
