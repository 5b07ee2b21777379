"""Plain-text rendering for experiment outputs.

The harness has no plotting dependency, so every experiment renders its
result as fixed-width tables and ASCII sparkline plots -- enough to
eyeball the same shapes the paper's figures show.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_SPARK_LEVELS = " .:-=+*#%@"


def ascii_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str = ""
) -> str:
    """Render a fixed-width table with a separator under the header."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in str_rows))
        if str_rows
        else len(header)
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def sparkline(values: Sequence[float], *, width: int = 72) -> str:
    """A one-line density plot of a series, resampled to ``width`` chars."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return ""
    resampled = np.interp(
        np.linspace(0, len(values) - 1, width), np.arange(len(values)), values
    )
    lo, hi = float(np.min(resampled)), float(np.max(resampled))
    if hi - lo < 1e-12:
        return _SPARK_LEVELS[0] * width
    scaled = (resampled - lo) / (hi - lo) * (len(_SPARK_LEVELS) - 1)
    # np.rint rounds half to even, as round() does, in one call.
    return "".join([_SPARK_LEVELS[int(s)] for s in np.rint(scaled).tolist()])


def series_block(
    name: str, values: Sequence[float], *, width: int = 72, unit: str = ""
) -> str:
    """A labelled sparkline with min/max annotations."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return f"{name}: (empty)"
    return (
        f"{name} [min={np.min(values):.3g}{unit} max={np.max(values):.3g}{unit}]\n"
        f"  {sparkline(values, width=width)}"
    )
