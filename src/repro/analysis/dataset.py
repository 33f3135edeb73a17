"""A tiny column-oriented table used to shape figure/table outputs.

The paper's artifact uses pandas DataFrames; this project avoids the
dependency and keeps the same spirit with an explicit, typed table that can
render itself as fixed-width text or CSV for reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple


@dataclass(frozen=True)
class Column:
    """A named column with an optional format specification."""

    name: str
    format_spec: str = ""

    def format(self, value: Any) -> str:
        if self.format_spec and isinstance(value, (int, float)):
            return format(value, self.format_spec)
        return str(value)


class Table:
    """An ordered collection of rows with named columns."""

    def __init__(self, columns: Sequence[Column]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        self._columns: Tuple[Column, ...] = tuple(columns)
        self._rows: List[Tuple[Any, ...]] = []

    # -- building ----------------------------------------------------------------

    def add_row(self, *values: Any, **named: Any) -> None:
        if named:
            if values:
                raise ValueError("pass either positional or named values, not both")
            values = tuple(named[c.name] for c in self._columns)
        if len(values) != len(self._columns):
            raise ValueError(
                f"expected {len(self._columns)} values, got {len(values)}"
            )
        self._rows.append(tuple(values))

    # -- access ------------------------------------------------------------------

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self._columns)

    # -- rendering ----------------------------------------------------------------

    def render_text(self, title: str = "") -> str:
        header = [c.name for c in self._columns]
        formatted_rows = [
            [c.format(value) for c, value in zip(self._columns, row)] for row in self._rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in formatted_rows)) if formatted_rows else len(header[i])
            for i in range(len(header))
        ]
        lines = []
        if title:
            lines.append(title)
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        for row in formatted_rows:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
        return "\n".join(lines)

    def to_csv(self) -> str:
        def escape(value: Any) -> str:
            text = str(value)
            if any(ch in text for ch in (",", '"', "\n")):
                return '"' + text.replace('"', '""') + '"'
            return text

        lines = [",".join(escape(name) for name in self.column_names)]
        for row in self._rows:
            lines.append(",".join(escape(value) for value in row))
        return "\n".join(lines)
