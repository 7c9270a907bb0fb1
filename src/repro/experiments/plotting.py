"""ASCII plotting for figures (no plotting dependencies available).

The paper's figures are line/bar charts; the harness renders their data
as monospace charts so `repro experiments` shows the *shapes*
(the flat-then-decay of Figure 7, the hockey-stick of the SLA sweep)
directly in a terminal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence


@dataclass(frozen=True)
class Series:
    """One labelled line of (x, y) points."""

    label: str
    x: Sequence[float]
    y: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.label!r}: x and y lengths differ "
                f"({len(self.x)} vs {len(self.y)})"
            )
        if not self.x:
            raise ValueError(f"series {self.label!r} is empty")


_MARKERS = "*o+x#@%&"


def ascii_chart(
    series: Sequence[Series],
    width: int = 64,
    height: int = 16,
    title: str = "",
    log_x: bool = False,
) -> str:
    """Render line series as a monospace scatter chart.

    Values are mapped onto a ``width x height`` grid; each series uses its
    own marker.  ``log_x`` spaces the x axis logarithmically (batch-size
    and load sweeps span decades).
    """
    if not series:
        raise ValueError("ascii_chart needs at least one series")
    if width < 8 or height < 4:
        raise ValueError("chart must be at least 8x4")

    def tx(v: float) -> float:
        if not log_x:
            return v
        if v <= 0:
            raise ValueError("log_x requires positive x values")
        return math.log10(v)

    xs = [tx(v) for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0

    grid = [[" "] * width for _ in range(height)]
    for k, s in enumerate(series):
        marker = _MARKERS[k % len(_MARKERS)]
        for xv, yv in zip(s.x, s.y):
            col = int(round((tx(xv) - x_lo) / x_span * (width - 1)))
            row = int(round((yv - y_lo) / y_span * (height - 1)))
            grid[height - 1 - row][col] = marker

    lines = []
    if title:
        lines.append(title)
    y_hi_label = f"{y_hi:.4g}"
    y_lo_label = f"{y_lo:.4g}"
    pad = max(len(y_hi_label), len(y_lo_label))
    for i, row in enumerate(grid):
        label = y_hi_label if i == 0 else y_lo_label if i == height - 1 else ""
        lines.append(f"{label:>{pad}} |{''.join(row)}")
    lines.append(" " * pad + " +" + "-" * width)
    x_lo_label = f"{(10 ** x_lo) if log_x else x_lo:.4g}"
    x_hi_label = f"{(10 ** x_hi) if log_x else x_hi:.4g}"
    gap = width - len(x_lo_label) - len(x_hi_label)
    lines.append(" " * (pad + 2) + x_lo_label + " " * max(gap, 1) + x_hi_label)
    legend = "   ".join(
        f"{_MARKERS[k % len(_MARKERS)]} {s.label}" for k, s in enumerate(series)
    )
    lines.append(" " * (pad + 2) + legend)
    return "\n".join(lines)


def series_from_rows(
    rows: Sequence[Mapping[str, object]],
    group_by: str,
    x_key: str,
    y_key: str,
) -> list[Series]:
    """Split experiment rows into one series per ``group_by`` value."""
    groups: dict[object, tuple[list[float], list[float]]] = {}
    for row in rows:
        if x_key not in row or y_key not in row:
            continue
        x, y = row[x_key], row[y_key]
        if not isinstance(x, (int, float)) or not isinstance(y, (int, float)):
            continue
        xs, ys = groups.setdefault(row.get(group_by), ([], []))
        xs.append(float(x))
        ys.append(float(y))
    return [
        Series(label=str(key), x=tuple(xs), y=tuple(ys))
        for key, (xs, ys) in groups.items()
        if xs
    ]
