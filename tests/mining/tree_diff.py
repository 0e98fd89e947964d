"""Node-for-node comparison of a row-wise and a columnar decision tree.

The row-wise miner (:mod:`repro.mining.decision_tree`,
:mod:`repro.mining.incremental_tree`) is the reference the columnar
A-Miner is held identical to; the differential suites in this directory
compare their trees with :func:`diff_trees`.
"""

from __future__ import annotations


def diff_trees(rowwise_root, columnar_root, tolerance: float = 1e-9) -> list[str]:
    """Structural differences between a row-wise and a columnar tree.

    Walks both trees in lockstep comparing path, split column, row count,
    prediction and (within float ``tolerance``) mean/error.  An empty
    list means the trees are node-for-node identical.
    ``rowwise_root`` is a :class:`~repro.mining.decision_tree.TreeNode`
    (row-index lists, columns by name), ``columnar_root`` a
    :class:`~repro.mining.columnar.ColumnarTreeNode` (bitset masks,
    columns as :class:`~repro.mining.dataset.FeatureSpec`), compared
    through ``feature.column``.
    """
    differences: list[str] = []

    def walk(a, b) -> None:
        where = " & ".join(f"{c}={v}" for c, v in a.path) or "<root>"
        b_path = tuple((feature.column, value) for feature, value in b.path)
        if a.path != b_path:
            differences.append(f"{where}: path {a.path} != {b_path}")
            return
        b_split = b.split_column and b.split_column.column
        if a.split_column != b_split:
            differences.append(f"{where}: split {a.split_column} != {b_split}")
            return
        if len(a.rows) != b.count:
            differences.append(f"{where}: rows {len(a.rows)} != {b.count}")
        if a.prediction != b.prediction:
            differences.append(
                f"{where}: prediction {a.prediction} != {b.prediction}")
        if abs(a.mean - b.mean) > tolerance:
            differences.append(f"{where}: mean {a.mean} != {b.mean}")
        if abs(a.error - b.error) > tolerance:
            differences.append(f"{where}: error {a.error} != {b.error}")
        if set(a.children) != set(b.children):
            differences.append(
                f"{where}: branches {sorted(a.children)} != {sorted(b.children)}")
            return
        for branch in a.children:
            walk(a.children[branch], b.children[branch])

    walk(rowwise_root, columnar_root)
    return differences
