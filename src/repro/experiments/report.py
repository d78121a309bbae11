"""Plain-text rendering of experiment results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: stamped into every --json payload; bump on incompatible shape changes
JSON_SCHEMA = "repro-experiment/1"


@dataclass
class Table:
    """One experiment's output: a titled grid of rows."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: machine-readable side data (per-workload traces, breakdowns, ...)
    meta: dict = field(default_factory=dict)

    def add(self, *values: Any) -> None:
        self.rows.append(list(values))

    def column(self, name: str) -> list[Any]:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def row(self, key: Any) -> list[Any]:
        for r in self.rows:
            if r[0] == key:
                return r
        raise KeyError(key)

    def cell(self, key: Any, column: str):
        return self.row(key)[self.columns.index(column)]

    def to_dict(self) -> dict:
        """JSON-ready form: rows become {column: value} records."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(zip(self.columns, r)) for r in self.rows],
            "notes": list(self.notes),
            "meta": self.meta,
        }

    def render(self) -> str:
        def fmt(v: Any) -> str:
            if isinstance(v, float):
                # pick precision by magnitude (sign excluded, so that
                # e.g. -123.4 and 123.4 round the same way)
                if abs(v) >= 100:
                    return f"{v:.0f}"
                if abs(v) >= 10:
                    return f"{v:.1f}"
                return f"{v:.2f}"
            return str(v)

        grid = [self.columns] + [[fmt(v) for v in r] for r in self.rows]
        widths = [max(len(row[i]) for row in grid)
                  for i in range(len(self.columns))]
        lines = [self.title, "=" * len(self.title)]
        for j, row in enumerate(grid):
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
            if j == 0:
                lines.append("  ".join("-" * w for w in widths))
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines)
