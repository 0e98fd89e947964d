"""Variance-error decision tree learning (the paper's Figure 2).

The data space is recursively split on Boolean feature columns.  Each node
carries the *mean* ``M`` of the target values reaching it and the *error*
``E`` (sum of squared deviations from the mean).  A node with zero error is
a leaf: every example agrees on the target value, so the path from the root
is a 100 %-confidence candidate assertion.  When the error is non-zero the
splitting variable with the smallest resulting child error is chosen, and
the recursion continues until zero error, exhausted features, or the depth
limit.

:class:`DecisionTree` is the row-wise test reference for
:class:`repro.mining.columnar.ColumnarDecisionTree`, which reuses this
module's split arithmetic and must build node-for-node identical trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.assertions.assertion import Assertion
from repro.mining.dataset import MiningDataset


@dataclass
class TreeNode:
    """One node of a (incremental) decision tree."""

    path: tuple[tuple[str, int], ...] = ()
    rows: list[int] = field(default_factory=list)
    mean: float = 0.0
    error: float = 0.0
    split_column: str | None = None
    children: dict[int, "TreeNode"] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self.path)

    @property
    def is_leaf(self) -> bool:
        return self.split_column is None

    @property
    def prediction(self) -> int:
        return 1 if self.mean >= 0.5 else 0

    @property
    def is_pure(self) -> bool:
        return self.error == 0.0 and bool(self.rows)

    def used_columns(self) -> set[str]:
        return {column for column, _ in self.path}

    def iter_nodes(self) -> Iterator["TreeNode"]:
        yield self
        for child in self.children.values():
            yield from child.iter_nodes()

    def iter_leaves(self) -> Iterator["TreeNode"]:
        if self.is_leaf:
            yield self
        else:
            for child in self.children.values():
                yield from child.iter_leaves()

    def describe(self) -> str:
        condition = " & ".join(
            f"{column}={value}" for column, value in self.path
        ) or "<root>"
        return (f"{condition}: n={len(self.rows)} M={self.mean:.3f} "
                f"E={self.error:.3f} split={self.split_column}")


def node_statistics(targets: Sequence[int]) -> tuple[float, float]:
    """Return ``(mean, error)`` where error is the sum of squared deviations."""
    if not targets:
        return 0.0, 0.0
    mean = sum(targets) / len(targets)
    error = sum((value - mean) ** 2 for value in targets)
    return mean, error


def child_error_fraction(zero_ones: int, zero_count: int,
                         one_ones: int, one_count: int) -> tuple[int, int]:
    """Exact summed child error of a binary split, as an integer fraction.

    Mining targets are single bits, so a child with ``n`` rows of which
    ``k`` are 1 has error ``sum((v - k/n)^2) = k*(n-k)/n`` and the summed
    child error of a split is the rational number::

        k0*(n0-k0)/n0 + k1*(n1-k1)/n1

    returned here as ``(numerator, denominator)`` over the common
    denominator ``n0*n1``.  Both mining engines (row-wise and columnar)
    rank candidate split columns by this exact fraction via
    :func:`fraction_less`, so float rounding can never make the engines
    disagree on a split.  **Tie-break:** a candidate must be *strictly*
    smaller to displace the current best, so among tied columns the first
    one in dataset feature (column) order wins — identically in both
    engines, which enumerate features in the same order.
    """
    numerator = (zero_ones * (zero_count - zero_ones) * one_count
                 + one_ones * (one_count - one_ones) * zero_count)
    return numerator, zero_count * one_count


def fraction_less(left: tuple[int, int], right: tuple[int, int]) -> bool:
    """Exact ``left < right`` over non-negative fractions (cross-multiply)."""
    return left[0] * right[1] < right[0] * left[1]


class DecisionTree:
    """Decision tree over a :class:`MiningDataset` built from scratch."""

    def __init__(self, dataset: MiningDataset, max_depth: int | None = None):
        self.dataset = dataset
        self.max_depth = max_depth if max_depth is not None else len(dataset.features)
        self.root = TreeNode()
        self._built = False

    # ------------------------------------------------------------------
    def build(self) -> TreeNode:
        """(Re)build the whole tree from the dataset's current rows."""
        self.root = TreeNode(rows=list(range(len(self.dataset.rows))))
        self._update_statistics(self.root)
        self._split_recursively(self.root)
        self._built = True
        return self.root

    # ------------------------------------------------------------------
    # node-level operations shared with the incremental tree
    # ------------------------------------------------------------------
    def _targets_of(self, node: TreeNode) -> list[int]:
        rows = self.dataset.rows
        return [rows[index][1] for index in node.rows]

    def _update_statistics(self, node: TreeNode) -> None:
        node.mean, node.error = node_statistics(self._targets_of(node))

    def _split_recursively(self, node: TreeNode) -> None:
        if node.error == 0.0:
            return
        if node.depth >= self.max_depth:
            return
        column = self._select_split_column(node)
        if column is None:
            return
        self._apply_split(node, column)
        for child in node.children.values():
            self._split_recursively(child)

    def _select_split_column(self, node: TreeNode) -> str | None:
        """Pick the column minimising the summed child error (Figure 2).

        Candidates are ranked with the exact integer fraction from
        :func:`child_error_fraction`; ties keep the earliest column in
        dataset feature order.  The columnar engine evaluates the same
        fraction from popcounts, so split selection is engine-invariant.
        """
        rows = self.dataset.rows
        used = node.used_columns()
        total_rows = len(node.rows)
        best_column: str | None = None
        best_key: tuple[int, int] | None = None
        for feature in self.dataset.features:
            column = feature.column
            if column in used:
                continue
            one_count = 0
            one_ones = 0
            zero_ones = 0
            for index in node.rows:
                values, target = rows[index]
                if values.get(column, 0):
                    one_count += 1
                    one_ones += target
                else:
                    zero_ones += target
            zero_count = total_rows - one_count
            if not zero_count or not one_count:
                continue  # the column does not separate anything at this node
            key = child_error_fraction(zero_ones, zero_count, one_ones, one_count)
            if best_key is None or fraction_less(key, best_key):
                best_key = key
                best_column = column
        return best_column

    def _apply_split(self, node: TreeNode, column: str) -> None:
        rows = self.dataset.rows
        children = {
            0: TreeNode(path=node.path + ((column, 0),)),
            1: TreeNode(path=node.path + ((column, 1),)),
        }
        for index in node.rows:
            values, _ = rows[index]
            branch = 1 if values.get(column, 0) else 0
            children[branch].rows.append(index)
        for child in children.values():
            self._update_statistics(child)
        node.split_column = column
        node.children = children

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def leaves(self) -> list[TreeNode]:
        return list(self.root.iter_leaves())

    def node_count(self) -> int:
        return sum(1 for _ in self.root.iter_nodes())

    def predict(self, feature_values: dict[str, int]) -> int:
        node = self.root
        while not node.is_leaf:
            branch = 1 if feature_values.get(node.split_column, 0) else 0
            node = node.children[branch]
        return node.prediction

    def route(self, feature_values: dict[str, int]) -> list[TreeNode]:
        """Return the root-to-leaf path a feature vector follows."""
        node = self.root
        path = [node]
        while not node.is_leaf:
            branch = 1 if feature_values.get(node.split_column, 0) else 0
            node = node.children[branch]
            path.append(node)
        return path

    # ------------------------------------------------------------------
    # candidate assertion extraction
    # ------------------------------------------------------------------
    def assertion_for_leaf(self, leaf: TreeNode) -> Assertion:
        """Turn one pure leaf into a candidate assertion."""
        antecedent = tuple(
            self.dataset.feature_literal(column, value) for column, value in leaf.path
        )
        consequent = self.dataset.target.to_literal(leaf.prediction)
        return Assertion(
            antecedent=antecedent,
            consequent=consequent,
            window=self.dataset.window,
            confidence=1.0,
            support=len(leaf.rows),
        )

    def default_assertion(self, value: int = 0) -> Assertion:
        """The zero-knowledge assertion used when no data exists yet.

        Section 7.2: with no patterns the procedure begins with "output
        always 0", which formal verification refutes, providing the first
        functional pattern.
        """
        return Assertion(
            antecedent=(),
            consequent=self.dataset.target.to_literal(value),
            window=self.dataset.window,
            confidence=1.0,
            support=0,
        )

    def candidate_assertions(self) -> list[Assertion]:
        """All 100 %-confidence candidate assertions at the current leaves."""
        if not self._built:
            self.build()
        if not self.dataset.rows:
            return [self.default_assertion()]
        assertions = []
        for leaf in self.leaves():
            if leaf.is_pure:
                assertions.append(self.assertion_for_leaf(leaf))
        return assertions

    def impure_leaves(self) -> list[TreeNode]:
        """Leaves whose examples disagree (no 100 %-confidence rule exists)."""
        if not self._built:
            self.build()
        return [leaf for leaf in self.leaves() if leaf.rows and leaf.error > 0]

    def dump(self) -> str:
        """Multi-line textual rendering of the tree (debugging/inspection)."""
        lines = []
        for node in self.root.iter_nodes():
            lines.append("  " * node.depth + node.describe())
        return "\n".join(lines)
