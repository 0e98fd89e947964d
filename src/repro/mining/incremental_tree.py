"""Counterexample-driven incremental decision trees (paper Section 3).

The incremental tree preserves the variable ordering of the previous
iteration's tree everywhere above the leaves (Definition 6).  When
counterexample rows are added:

* every new row is routed from the root along the existing splits,
  updating the mean/error bookkeeping of each node it passes
  (``Recompute_error`` in Figure 4),
* leaves whose error becomes non-zero — exactly the leaves whose candidate
  assertion was refuted — continue splitting on the new variables the
  counterexample introduced, while every other path is left untouched.

This mirrors Figure 5: the regular tree's refuted leaf grows a new subtree
while the rest of the structure (and all previously true assertions) is
retained.

:class:`IncrementalDecisionTree` is the row-wise test reference for
:class:`repro.mining.columnar.ColumnarIncrementalDecisionTree`, the tree
the closure loop grows.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.assertions.assertion import Assertion
from repro.mining.dataset import MiningDataset
from repro.mining.decision_tree import DecisionTree, TreeNode


class IncrementalDecisionTree(DecisionTree):
    """A decision tree that grows in place as counterexample data arrives."""

    def __init__(self, dataset: MiningDataset, max_depth: int | None = None):
        super().__init__(dataset, max_depth)
        self.iterations = 0
        #: Number of rows already incorporated into the tree structure.
        self._consumed_rows = 0

    # ------------------------------------------------------------------
    def build(self) -> TreeNode:
        """Initial build over whatever rows the dataset currently holds."""
        root = super().build()
        self._consumed_rows = len(self.dataset.rows)
        return root

    # ------------------------------------------------------------------
    def absorb_new_rows(self) -> list[TreeNode]:
        """Incorporate rows appended to the dataset since the last call.

        Returns the leaves that were re-split because the new data
        contradicted their previous 100 %-confidence assertion.
        """
        if not self._built:
            self.build()
            return []
        # The depth limit follows the feature space, which may have grown
        # (counterexamples can introduce variables such as farther-back
        # registers, Section 3.1).
        self.max_depth = max(self.max_depth, len(self.dataset.features))
        new_indices = range(self._consumed_rows, len(self.dataset.rows))
        touched_leaves: dict[int, TreeNode] = {}
        for index in new_indices:
            leaf = self._route_row(index)
            touched_leaves[id(leaf)] = leaf
        self._consumed_rows = len(self.dataset.rows)

        refined: list[TreeNode] = []
        for leaf in touched_leaves.values():
            self._update_statistics(leaf)
            if leaf.error > 0:
                self._split_recursively(leaf)
                refined.append(leaf)
        if refined:
            self.iterations += 1
        return refined

    def _route_row(self, index: int) -> TreeNode:
        """Send one dataset row down the existing structure, updating stats."""
        values, _ = self.dataset.rows[index]
        node = self.root
        node.rows.append(index)
        self._update_statistics(node)
        while not node.is_leaf:
            branch = 1 if values.get(node.split_column, 0) else 0
            node = node.children[branch]
            node.rows.append(index)
            self._update_statistics(node)
        return node

    # ------------------------------------------------------------------
    def add_windows(self, windows: Iterable[Mapping[int, Mapping[str, int]]]) -> list[TreeNode]:
        """Add explicit windows to the dataset and absorb them."""
        for window in windows:
            self.dataset.add_window(window)
        return self.absorb_new_rows()

    def add_trace(self, trace) -> list[TreeNode]:
        """Add every window of a (counterexample) trace and absorb them."""
        self.dataset.add_trace(trace)
        return self.absorb_new_rows()

    # ------------------------------------------------------------------
    def is_final(self, proven: Sequence[Assertion]) -> bool:
        """Definition 7: every leaf's assertion is formally true.

        ``proven`` is the set of assertions already declared true by the
        formal verifier; the tree is final when every pure leaf's assertion
        appears in it and no impure leaves remain.
        """
        proven_set = set(proven)
        for leaf in self.leaves():
            if not leaf.rows:
                continue
            if leaf.error > 0:
                return False
            if self.assertion_for_leaf(leaf) not in proven_set:
                return False
        return True

    def structure_signature(self) -> tuple:
        """Hashable summary of the tree structure (used by ablation tests)."""

        def walk(node: TreeNode) -> tuple:
            if node.is_leaf:
                return ("leaf", node.prediction if node.rows else None)
            return (
                node.split_column,
                walk(node.children[0]),
                walk(node.children[1]),
            )

        return walk(self.root)
