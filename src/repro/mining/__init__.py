"""A-Miner: decision-tree based assertion mining (GoldMine Section 2.3).

:mod:`repro.mining.columnar` is the miner the closure loop runs: it
stores every feature column as one big-int bitset, packed from each
trace signal bit's history at once, computes split gains with popcounts
on ``column & mask`` words, and builds each pure leaf's candidate once.

The row-wise classes are the test reference the columnar engine is
held node-for-node identical to: :mod:`repro.mining.dataset` turns
simulation traces into windowed per-row feature dicts and
:mod:`repro.mining.decision_tree` / :mod:`repro.mining.incremental_tree`
induce over them one row at a time (the paper's Figure 2 and Section 3
algorithms).  The columnar engine shares their feature enumeration,
target placement and split arithmetic; the tree comparison the
differential tests run lives with them, in ``tests/mining/``.
"""

from __future__ import annotations

from repro.mining.columnar import (
    ColumnarDataset,
    ColumnarDecisionTree,
    ColumnarIncrementalDecisionTree,
    ColumnarTreeNode,
)
from repro.mining.dataset import FeatureSpec, MiningDataset
from repro.mining.decision_tree import DecisionTree, TreeNode
from repro.mining.incremental_tree import IncrementalDecisionTree

__all__ = [
    "ColumnarDataset",
    "ColumnarDecisionTree",
    "ColumnarIncrementalDecisionTree",
    "ColumnarTreeNode",
    "DecisionTree",
    "FeatureSpec",
    "IncrementalDecisionTree",
    "MiningDataset",
    "TreeNode",
]
