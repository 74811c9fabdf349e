"""Common experiment-result container and text rendering.

Every experiment module returns an :class:`ExperimentResult`: a list of
row dicts (the regenerated table / figure series) plus notes comparing
against the paper's reported values.  The benchmark harness and the CLI
render these with :func:`render_table`.  The type lives in ``runtime``
because the result cache, the suite executor and the serve layer all
store or return it; :mod:`repro.analysis` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["ExperimentResult", "render_table", "format_value"]


@dataclass
class ExperimentResult:
    """The regenerated rows/series of one paper table or figure."""

    experiment: str
    title: str
    rows: List[Dict[str, object]]
    notes: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.experiment:
            raise ValueError("experiment id must be non-empty")

    def columns(self) -> List[str]:
        """Union of row keys, in first-seen order."""
        seen: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        return seen

    def render(self) -> str:
        """Human-readable report: title, table, notes."""
        lines = [f"== {self.experiment}: {self.title} =="]
        if self.rows:
            lines.append(render_table(self.rows, self.columns()))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def format_value(value: object) -> str:
    """Render one cell: floats get 4 significant digits."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != 0 and (abs(value) >= 1e5 or abs(value) < 1e-3):
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def render_table(rows: Sequence[Dict[str, object]], columns: List[str]) -> str:
    """Fixed-width text table."""
    if not rows:
        return "(no rows)"
    cells = [[format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(width) for col, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        for line in cells
    ]
    return "\n".join([header, separator] + body)
