"""Per-row views of a :class:`~repro.mining.columnar.ColumnarDataset`.

The columnar dataset stores one bitset per feature column; tests widen it
back to ``(feature values, target)`` tuples to compare it with the
row-wise reference or with another columnar build.
"""

from __future__ import annotations


def row_tuples(dataset) -> list[tuple[tuple[int, ...], int]]:
    """Rows widened back to per-row tuples, in row order."""
    columns = list(dataset.columns.values())
    return [
        (tuple((bits >> row) & 1 for bits in columns),
         (dataset.target_bits >> row) & 1)
        for row in range(dataset.n_rows)
    ]


def distinct_rows(dataset) -> int:
    """Number of distinct feature/target rows (duplicates collapse)."""
    return len(set(row_tuples(dataset)))
