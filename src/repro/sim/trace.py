"""Simulation traces: per-cycle tables of signal values.

A :class:`Trace` is the raw material of the whole methodology — GoldMine's
A-Miner consumes traces, counterexamples are replayed into traces, and the
refined test suite is ultimately a set of traces/stimulus sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence


@dataclass
class Trace:
    """An ordered sequence of per-cycle signal valuations.

    ``columns`` fixes the signal order; every row holds one unsigned value
    per column for one clock cycle (sampled after combinational settling,
    before the clock edge).
    """

    columns: tuple[str, ...]
    rows: list[tuple[int, ...]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.columns = tuple(self.columns)
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("trace row length does not match column count")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, int]]:
        for row in self.rows:
            yield dict(zip(self.columns, row))

    def append(self, values: Mapping[str, int]) -> None:
        """Append one cycle of values (missing signals default to 0)."""
        self.rows.append(tuple(int(values.get(name, 0)) for name in self.columns))

    def cycle(self, index: int) -> dict[str, int]:
        """Return the valuation at cycle ``index`` as a dictionary."""
        return dict(zip(self.columns, self.rows[index]))

    def value(self, name: str, cycle: int) -> int:
        """Return the value of ``name`` at ``cycle``."""
        return self.rows[cycle][self.columns.index(name)]

    def column(self, name: str) -> list[int]:
        """Return the full history of signal ``name``."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def select(self, names: Sequence[str]) -> "Trace":
        """Return a new trace restricted to ``names`` (keeping cycle order)."""
        indices = [self.columns.index(name) for name in names]
        rows = [tuple(row[i] for i in indices) for row in self.rows]
        return Trace(tuple(names), rows)

    def extend(self, other: "Trace") -> None:
        """Append all cycles of ``other`` (columns must match)."""
        if other.columns != self.columns:
            raise ValueError("cannot extend a trace with different columns")
        self.rows.extend(other.rows)

    def copy(self) -> "Trace":
        return Trace(self.columns, list(self.rows))

    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(cls, rows: Iterable[Mapping[str, int]],
                   columns: Sequence[str] | None = None) -> "Trace":
        """Build a trace from dictionaries, inferring columns if needed."""
        rows = list(rows)
        if columns is None:
            seen: list[str] = []
            for row in rows:
                for name in row:
                    if name not in seen:
                        seen.append(name)
            columns = seen
        trace = cls(tuple(columns))
        for row in rows:
            trace.append(row)
        return trace

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        header = " ".join(f"{name:>10}" for name in self.columns)
        lines = [header]
        for row in self.rows:
            lines.append(" ".join(f"{value:>10}" for value in row))
        return "\n".join(lines)
