"""A-Miner: decision-tree based assertion mining (GoldMine Section 2.3).

:mod:`repro.mining.columnar` is the miner the closure loop runs: it
stores every feature column as one big-int bitset and computes split
gains with popcounts on ``column & mask`` words; it also ingests the
batched simulator's lane-packed words directly (zero-copy).

The row-wise classes are the test reference the columnar engine is
held node-for-node identical to: :mod:`repro.mining.dataset` turns
simulation traces into windowed per-row feature dicts and
:mod:`repro.mining.decision_tree` / :mod:`repro.mining.incremental_tree`
induce over them one row at a time (the paper's Figure 2 and Section 3
algorithms).  The columnar engine shares their feature enumeration,
target placement and split arithmetic.
"""

from __future__ import annotations

from repro.mining.columnar import (
    ColumnarDataset,
    ColumnarDecisionTree,
    ColumnarIncrementalDecisionTree,
    ColumnarTreeNode,
    diff_trees,
)
from repro.mining.dataset import FeatureSpec, MiningDataset, TargetSpec
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
    "TargetSpec",
    "TreeNode",
    "diff_trees",
]
