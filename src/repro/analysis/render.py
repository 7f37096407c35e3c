"""ASCII rendering of tables and charts.

The benchmark harness regenerates the paper's figures as terminal
output; these helpers keep that output aligned and readable without a
plotting dependency.
"""

from __future__ import annotations

from typing import Optional, Sequence


def ascii_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: Optional[str] = None
) -> str:
    """Fixed-width table with a header rule.

    Floats are rendered with four decimals; everything else with ``str``.
    """

    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    str_rows = [[fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_bars(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    title: Optional[str] = None,
    unit: str = "",
) -> str:
    """Horizontal bar chart scaled to the maximum value."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    values = [float(v) for v in values]
    peak = max((abs(v) for v in values), default=0.0)
    scale = width / peak if peak > 0 else 0.0
    label_width = max((len(l) for l in labels), default=0)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(0, int(round(abs(value) * scale)))
        lines.append(f"{label.ljust(label_width)} | {bar} {value:.4f}{unit}")
    return "\n".join(lines)


def ascii_histogram(
    counts: Sequence[int],
    edges: Sequence[float],
    width: int = 40,
    title: Optional[str] = None,
) -> str:
    """Render ``np.histogram``-style output as horizontal bars."""
    if len(edges) != len(counts) + 1:
        raise ValueError("edges must have one more entry than counts")
    labels = [
        f"[{edges[i]:6.2f},{edges[i + 1]:6.2f})" for i in range(len(counts))
    ]
    return ascii_bars(labels, [float(c) for c in counts], width=width, title=title)
