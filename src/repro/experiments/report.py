"""Plain-text rendering of experiment results.

Every experiment module returns an :class:`ExperimentResult`; this module
renders it as a monospace table (the same rows/series the paper reports,
with paper-reported values side by side where available).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence


@dataclass
class ExperimentResult:
    """Rows of one regenerated table or figure."""

    experiment_id: str  # e.g. "table2"
    title: str
    columns: Sequence[str]
    rows: list[Mapping[str, object]]
    notes: list[str] = field(default_factory=list)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(result: ExperimentResult) -> str:
    """Monospace table with a title banner and footnotes."""
    cols = list(result.columns)
    cells = [[_fmt(r.get(c)) for c in cols] for r in result.rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
        for i, c in enumerate(cols)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = [
        f"== {result.experiment_id}: {result.title} ==",
        " | ".join(c.ljust(w) for c, w in zip(cols, widths)),
        sep,
    ]
    lines.extend(
        " | ".join(v.ljust(w) for v, w in zip(row, widths)) for row in cells
    )
    for note in result.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
