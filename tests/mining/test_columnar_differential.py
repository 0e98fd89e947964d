"""Differential suite: the columnar miner against the row-wise reference.

The contract (ISSUE 4 acceptance): for randomized traces across designs,
windows and seeds, :class:`ColumnarDecisionTree` produces node-for-node
identical trees and identical ``candidate_assertions()`` to the row-wise
:class:`DecisionTree`, both for fresh builds and under counterexample-
style incremental refinement, and whether the columnar dataset was built
from per-lane traces or zero-copy from the batched simulator's
lane-packed words.  The row-wise classes are kept only as this reference:
``GoldMine`` and ``CoverageClosure`` mine on the columnar engine, and the
end-to-end cases below swap row-wise trees into them to compare.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.designs import info as design_info
from repro.mining import (
    ColumnarDataset,
    ColumnarDecisionTree,
    ColumnarIncrementalDecisionTree,
    MiningDataset,
    DecisionTree,
    IncrementalDecisionTree,
    diff_trees,
)
from repro.mining.dataset import FeatureSpec
from repro.sim.batched import BatchedSimulator
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus

#: (design, output, window) subjects spanning combinational and sequential
#: targets, single- and multi-window mining, and every design family the
#: fig13/fig16 workloads draw from.
CASES = [
    ("cex_small", "z", None, 1),
    ("arbiter2", "gnt0", None, 1),
    ("arbiter2", "gnt0", None, 2),
    ("arbiter4", "gnt0", None, 2),
    ("b01", "outp", None, 2),
    ("wbstage", "wb_valid", None, 1),
    ("counter_block", "count", 1, 1),
]

SEEDS = (0, 3, 11)


def dataset_pair(design: str, output: str, bit, window: int):
    meta = design_info(design)
    rowwise = MiningDataset(meta.build(), output, window=window, output_bit=bit)
    columnar = ColumnarDataset(meta.build(), output, window=window, output_bit=bit)
    return rowwise, columnar


def fill_pair(design: str, output: str, bit, window: int, seed: int, cycles: int = 25):
    rowwise, columnar = dataset_pair(design, output, bit, window)
    trace = Simulator(rowwise.module).run(RandomStimulus(cycles, seed=seed))
    rowwise.add_trace(trace)
    columnar.add_trace(trace)
    return rowwise, columnar


class TestDatasetEquivalence:
    @pytest.mark.parametrize("design,output,bit,window", CASES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_columns_and_targets_agree(self, design, output, bit, window, seed):
        rowwise, columnar = fill_pair(design, output, bit, window, seed)
        assert rowwise.feature_columns == columnar.feature_columns
        assert len(rowwise) == len(columnar)
        assert rowwise.target_values() == columnar.target_values()
        for column in rowwise.feature_columns:
            # Row-wise stores raw values; both engines treat nonzero as 1.
            assert [1 if v else 0 for v in rowwise.column_values(column)] == \
                columnar.column_values(column)
        assert rowwise.distinct_rows() == columnar.distinct_rows()

    def test_add_window_matches_add_trace(self, arbiter2_module):
        columnar = ColumnarDataset(arbiter2_module, "gnt0", window=2)
        via_windows = ColumnarDataset(arbiter2_module, "gnt0", window=2)
        trace = Simulator(arbiter2_module).run(RandomStimulus(12, seed=5))
        columnar.add_trace(trace)
        span = columnar.span
        for start in range(len(trace) - span + 1):
            via_windows.add_window(
                {offset: trace.cycle(start + offset) for offset in range(span)})
        assert columnar.n_rows == via_windows.n_rows
        assert columnar.columns == via_windows.columns
        assert columnar.target_bits == via_windows.target_bits

    def test_add_feature_reads_zero_for_existing_rows(self):
        rowwise, columnar = fill_pair("arbiter2", "gnt0", None, 1, seed=1)
        spec = FeatureSpec("req0", 5)
        rowwise.add_feature(spec)
        columnar.add_feature(spec)
        assert rowwise.feature_columns == columnar.feature_columns
        assert columnar.column_values(spec.column) == [0] * len(columnar)
        assert diff_trees(DecisionTree(rowwise).build(),
                          ColumnarDecisionTree(columnar).build()) == []


class TestTreeEquivalence:
    @pytest.mark.parametrize("design,output,bit,window", CASES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fresh_trees_node_for_node_identical(self, design, output, bit,
                                                 window, seed):
        rowwise, columnar = fill_pair(design, output, bit, window, seed)
        row_tree = DecisionTree(rowwise)
        col_tree = ColumnarDecisionTree(columnar)
        row_tree.build()
        col_tree.build()
        assert diff_trees(row_tree.root, col_tree.root) == []
        assert row_tree.candidate_assertions() == col_tree.candidate_assertions()
        assert len(row_tree.impure_leaves()) == len(col_tree.impure_leaves())
        assert row_tree.node_count() == col_tree.node_count()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_max_depth_respected_identically(self, seed):
        rowwise, columnar = fill_pair("arbiter4", "gnt0", None, 2, seed, cycles=30)
        row_tree = DecisionTree(rowwise, max_depth=2)
        col_tree = ColumnarDecisionTree(columnar, max_depth=2)
        row_tree.build()
        col_tree.build()
        assert all(leaf.depth <= 2 for leaf in col_tree.leaves())
        assert diff_trees(row_tree.root, col_tree.root) == []

    def test_empty_dataset_default_assertion_parity(self, arbiter2_module):
        rowwise = MiningDataset(arbiter2_module, "gnt0", window=1)
        columnar = ColumnarDataset(arbiter2_module, "gnt0", window=1)
        assert DecisionTree(rowwise).candidate_assertions() == \
            ColumnarDecisionTree(columnar).candidate_assertions()

    @pytest.mark.parametrize("design,output,bit,window", CASES)
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_incremental_refinement_stays_identical(self, design, output, bit,
                                                    window, seed):
        """Counterexample-style refinement keeps the engines in lockstep."""
        rowwise, columnar = fill_pair(design, output, bit, window, seed, cycles=8)
        row_tree = IncrementalDecisionTree(rowwise)
        col_tree = ColumnarIncrementalDecisionTree(columnar)
        row_tree.build()
        col_tree.build()
        simulator = Simulator(rowwise.module)
        for round_index in range(3):
            trace = simulator.run(
                RandomStimulus(4 + round_index, seed=seed * 101 + round_index))
            row_refined = row_tree.add_trace(trace)
            col_refined = col_tree.add_trace(trace)
            assert len(row_refined) == len(col_refined)
            assert diff_trees(row_tree.root, col_tree.root) == []
            assert row_tree.candidate_assertions() == col_tree.candidate_assertions()
        assert row_tree.iterations == col_tree.iterations
        assert row_tree.structure_signature() == col_tree.structure_signature()


class TestZeroCopyBlockPath:
    """The lane-word path must equal widening the block to traces first."""

    @pytest.mark.parametrize("design,output,bit,window", CASES[:5])
    def test_block_and_trace_datasets_hold_the_same_rows(self, design, output,
                                                         bit, window):
        meta = design_info(design)
        module = meta.build()
        block = BatchedSimulator(module, lanes=16).run_random_block(8, seed=9)
        from_block = ColumnarDataset(meta.build(), output, window=window,
                                     output_bit=bit)
        from_block.add_lane_block(block)
        from_traces = ColumnarDataset(meta.build(), output, window=window,
                                      output_bit=bit)
        from_traces.add_traces(block.to_traces())
        assert from_block.n_rows == from_traces.n_rows
        # Row order differs (start-major vs lane-major) but the row
        # multiset — all tree induction consumes — must be identical.
        assert Counter(from_block.row_tuples()) == Counter(from_traces.row_tuples())
        assert diff_trees(
            DecisionTree(
                _rowwise_from_traces(meta.build(), output, bit, window,
                                     block.to_traces())).build(),
            ColumnarDecisionTree(from_block).build()) == []

    def test_block_traces_match_run_random(self, arbiter2_module):
        """Same RNG stream: the block widened to traces is ``run_random``."""
        block = BatchedSimulator(arbiter2_module, lanes=8).run_random_block(10, seed=2)
        direct = BatchedSimulator(arbiter2_module, lanes=8).run_random(10, seed=2)
        widened = block.to_traces()
        assert len(widened) == len(direct)
        for a, b in zip(widened, direct):
            assert a.columns == b.columns and a.rows == b.rows


def _rowwise_from_traces(module, output, bit, window, traces):
    dataset = MiningDataset(module, output, window=window, output_bit=bit)
    dataset.add_traces(traces)
    return dataset


def closure_pair(meta, outputs, config, **kwargs):
    """The production (columnar) closure and one whose every output tree
    is swapped for the row-wise reference tree before it runs."""
    pair = {}
    for engine in ("rowwise", "columnar"):
        closure = CoverageClosure(meta.build(), outputs=outputs, config=config,
                                  **kwargs)
        if engine == "rowwise":
            for context in closure.contexts:
                dataset = MiningDataset(
                    closure.module, context.output, window=config.window,
                    output_bit=context.bit,
                    include_internal_state=config.include_internal_state,
                    synth=closure.engine.synth)
                context.tree = IncrementalDecisionTree(dataset, config.max_depth)
        pair[engine] = closure
    return pair


class TestClosureEngineInvariance:
    """The full refinement loop mines the same assertions on either engine."""

    @pytest.mark.parametrize("design", ["arbiter2", "b01", "cex_small"])
    def test_closure_results_identical(self, design):
        meta = design_info(design)
        closures = closure_pair(meta, list(meta.mining_outputs) or None,
                                GoldMineConfig(window=meta.window))
        results = {}
        for engine, closure in closures.items():
            seed = meta.seed_vectors() if meta.directed_test is not None else \
                RandomStimulus(8, seed=4)
            results[engine] = closure.run(seed)
        rowwise, columnar = results["rowwise"], results["columnar"]
        assert rowwise.converged == columnar.converged
        assert rowwise.true_assertions == columnar.true_assertions
        assert rowwise.test_suite == columnar.test_suite
        assert len(rowwise.iterations) == len(columnar.iterations)
        for row_ctx, col_ctx in zip(closures["rowwise"].contexts,
                                    closures["columnar"].contexts):
            assert diff_trees(row_ctx.tree.root, col_ctx.tree.root) == []

    def test_rebuild_trees_variant_also_invariant(self):
        meta = design_info("arbiter2")
        closures = closure_pair(meta, ["gnt0"], GoldMineConfig(window=2),
                                rebuild_trees=True)
        outcomes = [closure.run(meta.seed_vectors())
                    for closure in closures.values()]
        assert outcomes[0].true_assertions == outcomes[1].true_assertions
        assert outcomes[0].test_suite == outcomes[1].test_suite

    def test_production_closure_mines_on_columnar_trees(self, arbiter2_module):
        closure = CoverageClosure(arbiter2_module, outputs=["gnt0"],
                                  config=GoldMineConfig(window=2))
        tree = closure.final_tree("gnt0")
        assert isinstance(tree, ColumnarIncrementalDecisionTree)
        assert isinstance(tree.dataset, ColumnarDataset)
