"""Benchmark harness: sweep runners and table formatting.

Every benchmark in ``benchmarks/`` funnels its measurements through
:class:`SweepTable`, which prints the same rows/series the paper's figures
report (who wins, by what factor, where the crossover falls) in a stable,
diff-friendly plain-text format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = ["SweepTable", "format_seconds", "format_factor"]


def format_seconds(seconds: float) -> str:
    """Human-scaled time: 1.23s / 45.6ms / 789us."""
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def format_factor(factor: float) -> str:
    """A speedup/slowdown factor: '12.3x' (or '-' for undefined)."""
    if factor != factor or factor in (float("inf"), 0.0):  # NaN/inf guard
        return "-"
    return f"{factor:.1f}x"


@dataclass
class SweepTable:
    """Collects rows of a parameter sweep and renders a fixed-width table."""

    title: str
    columns: Sequence[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells for {len(self.columns)} "
                "columns")
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> list[Any]:
        """All values of one column, by header name."""
        index = list(self.columns).index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        cells = [[str(c) for c in self.columns]]
        cells.extend([_render_cell(value) for value in row]
                     for row in self.rows)
        widths = [max(len(row[i]) for row in cells)
                  for i in range(len(self.columns))]
        lines = [f"== {self.title} =="]
        header = "  ".join(c.ljust(w) for c, w in zip(cells[0], widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells[1:]:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"   note: {note}")
        return "\n".join(lines)


def _render_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)
