"""Property-based suite for the incremental decision trees, both engines.

Properties held:

* **Cross-engine lockstep** — after any sequence of counterexample-style
  refinements, the row-wise and columnar incremental trees are
  node-for-node identical and emit identical candidate assertions (the
  load-bearing property for closure-loop invariance).
* **Single-absorb equals fresh** — absorbing the merged dataset in one
  ``absorb_new_rows`` call over a previously-empty tree yields exactly
  the tree a fresh ``DecisionTree``/``ColumnarDecisionTree`` builds on
  the merged dataset, for both engines.  (After *multiple* refinements
  the incremental tree deliberately preserves earlier split orderings —
  Definition 6 — so it is compared against its cross-engine twin, not
  against a rebuild; the rebuild-vs-incremental difference is what
  ablation E10 measures.)
* **Invariants** — leaves always partition the rows, node statistics
  match a recomputation from member rows, and every candidate assertion
  is 100 %-confidence on the full merged dataset.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.designs import arbiter2
from repro.mining import (
    ColumnarDataset,
    ColumnarDecisionTree,
    ColumnarIncrementalDecisionTree,
    DecisionTree,
    IncrementalDecisionTree,
    MiningDataset,
)
from repro.mining.dataset import FeatureSpec
from repro.mining.decision_tree import node_statistics
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus
from tree_diff import diff_trees


def _pair(module, window):
    return (MiningDataset(module, "gnt0", window=window),
            ColumnarDataset(module, "gnt0", window=window))


def _leaf_masks_partition(tree: ColumnarDecisionTree) -> bool:
    union = 0
    for leaf in tree.leaves():
        if union & leaf.mask:
            return False
        union |= leaf.mask
    return union == tree.dataset.row_mask


def _rowwise_stats_consistent(tree: DecisionTree) -> bool:
    for node in tree.root.iter_nodes():
        mean, error = node_statistics(
            [tree.dataset.rows[i][1] for i in node.rows])
        if abs(mean - node.mean) > 1e-9 or abs(error - node.error) > 1e-9:
            return False
    return True


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500),
       initial_cycles=st.integers(3, 10),
       batches=st.lists(st.integers(2, 7), min_size=1, max_size=4),
       window=st.integers(1, 2))
def test_refinement_sequence_keeps_engines_in_lockstep(seed, initial_cycles,
                                                       batches, window):
    module = arbiter2()
    simulator = Simulator(module)
    rowwise, columnar = _pair(module, window)
    seed_trace = simulator.run(RandomStimulus(initial_cycles, seed=seed))
    rowwise.add_trace(seed_trace)
    columnar.add_trace(seed_trace)
    row_tree = IncrementalDecisionTree(rowwise)
    col_tree = ColumnarIncrementalDecisionTree(columnar)
    row_tree.build()
    col_tree.build()
    assert diff_trees(row_tree.root, col_tree.root) == []

    for index, cycles in enumerate(batches):
        trace = simulator.run(
            RandomStimulus(cycles + window, seed=seed * 97 + index + 1))
        row_refined = row_tree.add_trace(trace)
        col_refined = col_tree.add_trace(trace)
        assert len(row_refined) == len(col_refined)
        assert diff_trees(row_tree.root, col_tree.root) == []
        assert row_tree.candidate_assertions() == col_tree.candidate_assertions()
        assert row_tree.structure_signature() == col_tree.structure_signature()
        assert _leaf_masks_partition(col_tree)
        assert _rowwise_stats_consistent(row_tree)

    # Every candidate is 100%-confidence on the merged dataset.
    for assertion in col_tree.candidate_assertions():
        literals = {FeatureSpec(l.signal, l.cycle, l.bit).column: l.value
                    for l in assertion.antecedent}
        for features, target in rowwise.rows:
            if all((1 if features.get(col, 0) else 0) == val
                   for col, val in literals.items()):
                assert target == assertion.consequent.value

    # Fresh builds over the merged dataset also agree cross-engine.
    fresh_row = DecisionTree(rowwise)
    fresh_col = ColumnarDecisionTree(columnar)
    fresh_row.build()
    fresh_col.build()
    assert diff_trees(fresh_row.root, fresh_col.root) == []
    assert fresh_row.candidate_assertions() == fresh_col.candidate_assertions()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500),
       batches=st.lists(st.integers(2, 8), min_size=1, max_size=3),
       window=st.integers(1, 2))
def test_single_absorb_over_empty_tree_equals_fresh_build(seed, batches, window):
    """N batches folded in one absorb == a fresh DecisionTree on the merge."""
    module = arbiter2()
    simulator = Simulator(module)
    rowwise, columnar = _pair(module, window)
    row_tree = IncrementalDecisionTree(rowwise)
    col_tree = ColumnarIncrementalDecisionTree(columnar)
    row_tree.build()  # empty: a bare root leaf
    col_tree.build()

    for index, cycles in enumerate(batches):
        trace = simulator.run(
            RandomStimulus(cycles + window, seed=seed * 13 + index))
        rowwise.add_trace(trace)
        columnar.add_trace(trace)
    row_tree.absorb_new_rows()
    col_tree.absorb_new_rows()

    fresh_row = DecisionTree(rowwise)
    fresh_col = ColumnarDecisionTree(columnar)
    fresh_row.build()
    fresh_col.build()
    # Incremental-from-empty must equal the fresh build exactly — there
    # was no earlier structure to preserve, so re-splitting the root leaf
    # is the same recursion a fresh build performs.
    assert row_tree.structure_signature() == \
        IncrementalDecisionTree.structure_signature(_as_incremental(fresh_row))
    assert diff_trees(fresh_row.root, col_tree.root) == []
    assert diff_trees(row_tree.root, fresh_col.root) == []
    assert row_tree.candidate_assertions() == fresh_col.candidate_assertions()


def _as_incremental(tree: DecisionTree) -> IncrementalDecisionTree:
    """View a built DecisionTree through the incremental API (for
    structure_signature, which lives on the incremental subclass)."""
    incremental = IncrementalDecisionTree(tree.dataset, tree.max_depth)
    incremental.root = tree.root
    incremental._built = True
    return incremental


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 300), window=st.integers(1, 2))
def test_absorb_without_new_rows_is_noop_for_both_engines(seed, window):
    module = arbiter2()
    simulator = Simulator(module)
    rowwise, columnar = _pair(module, window)
    trace = simulator.run(RandomStimulus(8, seed=seed))
    rowwise.add_trace(trace)
    columnar.add_trace(trace)
    row_tree = IncrementalDecisionTree(rowwise)
    col_tree = ColumnarIncrementalDecisionTree(columnar)
    row_tree.build()
    col_tree.build()
    before = col_tree.structure_signature()
    assert row_tree.absorb_new_rows() == []
    assert col_tree.absorb_new_rows() == []
    assert col_tree.structure_signature() == before
    assert diff_trees(row_tree.root, col_tree.root) == []


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 300))
def test_is_final_agrees_between_engines(seed):
    module = arbiter2()
    simulator = Simulator(module)
    rowwise, columnar = _pair(module, 1)
    trace = simulator.run(RandomStimulus(10, seed=seed))
    rowwise.add_trace(trace)
    columnar.add_trace(trace)
    row_tree = IncrementalDecisionTree(rowwise)
    col_tree = ColumnarIncrementalDecisionTree(columnar)
    row_candidates = row_tree.candidate_assertions()
    col_candidates = col_tree.candidate_assertions()
    assert row_candidates == col_candidates
    assert row_tree.is_final(row_candidates) == col_tree.is_final(col_candidates)
    assert row_tree.is_final([]) == col_tree.is_final([])
