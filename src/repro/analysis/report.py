"""Fixed-width table rendering for experiment output.

Every experiment in :mod:`repro.experiments` returns a :class:`Table`;
``str(table)`` prints the same rows EXPERIMENTS.md records, so paper-vs-
measured comparisons regenerate with one call.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence

__all__ = ["Table"]


class Table:
    """A titled table with typed cells and fixed-width rendering."""

    def __init__(self, title: str, columns: Sequence[str], note: str = ""):
        if not columns:
            raise ValueError("need at least one column")
        self.title = title
        self.columns = list(columns)
        self.note = note
        self.rows: List[List[Any]] = []

    def add_row(self, *cells: Any) -> None:
        """Append one row (must match the column count)."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells but table has {len(self.columns)} columns"
            )
        self.rows.append(list(cells))

    def column(self, name: str) -> List[Any]:
        """All cells of one named column."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r} in {self.columns}") from None
        return [row[idx] for row in self.rows]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; :meth:`from_dict` round-trips it exactly.

        Cells keep their Python types (int vs. float vs. bool vs. str);
        non-finite floats survive because the encoder emits ``NaN`` /
        ``Infinity`` literals which ``json.loads`` reads back.
        """
        return {
            "title": self.title,
            "columns": list(self.columns),
            "note": self.note,
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Table":
        """Rebuild a table serialized by :meth:`to_dict`."""
        table = cls(payload["title"], payload["columns"], note=payload.get("note", ""))
        for row in payload["rows"]:
            table.add_row(*row)
        return table

    def digest(self) -> str:
        """SHA-256 of the canonical serialized table.

        Covers full-precision cell values (not the rounded rendering),
        so two tables digest equal iff :meth:`to_dict` round-trips to
        the same content -- the identity ``repro campaign`` prints and
        the byte-identical checks in the perf reports use.
        """
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=True
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @staticmethod
    def _format_cell(value: Any) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            if value == float("inf"):
                return "inf"
            if value == 0:
                return "0"
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            if abs(value) >= 10:
                return f"{value:.1f}"
            return f"{value:.3g}"
        return str(value)

    def render(self) -> str:
        """The table as fixed-width text."""
        cells = [[self._format_cell(c) for c in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells)) if cells else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if self.note:
            lines.append("")
            lines.append(f"note: {self.note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def __len__(self) -> int:
        return len(self.rows)
