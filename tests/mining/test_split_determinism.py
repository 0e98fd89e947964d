"""Regression tests pinning deterministic split-column selection.

Both mining engines rank candidate splits by the exact integer fraction
``child_error_fraction`` and break ties by column order (first feature in
dataset enumeration order wins).  These tests pin that contract: float
rounding can never flip a comparison, and an exact tie always resolves to
the earliest column — identically in both engines, which is what makes
the differential suite's node-for-node comparison exact rather than
approximate.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.mining import (
    ColumnarDataset,
    ColumnarDecisionTree,
    DecisionTree,
    MiningDataset,
)
from repro.mining.decision_tree import child_error_fraction, fraction_less
from repro.sim.trace import Trace
from tree_diff import diff_trees


class TestExactFractionRanking:
    def test_fraction_matches_rational_arithmetic(self):
        for zero_ones, zero_count, one_ones, one_count in [
            (0, 1, 1, 2), (1, 3, 2, 5), (4, 9, 3, 7), (0, 4, 4, 4),
        ]:
            numerator, denominator = child_error_fraction(
                zero_ones, zero_count, one_ones, one_count)
            expected = (Fraction(zero_ones * (zero_count - zero_ones), zero_count)
                        + Fraction(one_ones * (one_count - one_ones), one_count))
            assert Fraction(numerator, denominator) == expected

    def test_fraction_less_is_exact(self):
        # 1/3 vs a 64-bit-scale fraction infinitesimally above it: float
        # subtraction against an epsilon would call these equal.
        third = (1, 3)
        hair_above = (333_333_333_333_333_334, 1_000_000_000_000_000_000)
        assert fraction_less(third, hair_above)
        assert not fraction_less(hair_above, third)
        assert not fraction_less(third, (1, 3))  # equal is not less

    def test_pure_split_has_zero_error(self):
        assert child_error_fraction(0, 5, 3, 3)[0] == 0


def _tie_dataset(cls, module):
    """cex_small windows where columns a@0 and b@0 tie exactly for the
    root split (identical value patterns) and strictly beat c@0 (d@0 is
    constant and never a candidate)."""
    dataset = cls(module, "z", window=1)
    # One row per cycle: z is combinational, so the window spans one cycle.
    dataset.add_trace(Trace.from_dicts([
        {"a": 0, "b": 0, "c": 0, "d": 0, "z": 0},
        {"a": 0, "b": 0, "c": 1, "d": 0, "z": 0},
        {"a": 1, "b": 1, "c": 0, "d": 0, "z": 1},
        {"a": 1, "b": 1, "c": 1, "d": 0, "z": 1},
        {"a": 1, "b": 1, "c": 0, "d": 0, "z": 0},
    ]))
    return dataset


def _expected_root_split(dataset):
    """Independently compute the documented winner: the first column (in
    feature order) achieving the minimal exact child-error fraction."""
    targets = dataset.target_values()
    best_column, best = None, None
    for column in dataset.feature_columns:
        values = dataset.column_values(column)
        one = [t for v, t in zip(values, targets) if v]
        zero = [t for v, t in zip(values, targets) if not v]
        if not one or not zero:
            continue
        key = Fraction(*child_error_fraction(sum(zero), len(zero),
                                             sum(one), len(one)))
        if best is None or key < best:
            best, best_column = key, column
    return best_column


class TestColumnOrderTieBreak:
    def test_both_engines_pick_the_earliest_tied_column(self, cex_small_module):
        rowwise = _tie_dataset(MiningDataset, cex_small_module)
        columnar = _tie_dataset(ColumnarDataset, cex_small_module)
        expected = _expected_root_split(rowwise)
        # The crafted rows make a@0 and b@0 tie exactly; the winner must
        # be whichever comes first in the shared feature enumeration.
        columns = rowwise.feature_columns
        a_index = columns.index("a@0")
        b_index = columns.index("b@0")
        assert expected == columns[min(a_index, b_index)]

        row_tree = DecisionTree(rowwise)
        col_tree = ColumnarDecisionTree(columnar)
        row_tree.build()
        col_tree.build()
        assert row_tree.root.split_column == expected
        assert col_tree.root.split_column.column == expected
        assert diff_trees(row_tree.root, col_tree.root) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_every_selected_split_is_the_documented_winner(self, seed,
                                                           arbiter2_module):
        """On arbitrary data, the root split must always equal the
        independent exact-fraction scan (first minimal column wins)."""
        from repro.sim.simulator import Simulator
        from repro.sim.stimulus import RandomStimulus

        rowwise = MiningDataset(arbiter2_module, "gnt0", window=1)
        rowwise.add_trace(Simulator(arbiter2_module).run(
            RandomStimulus(12, seed=seed)))
        tree = DecisionTree(rowwise)
        tree.build()
        if tree.root.split_column is not None:
            assert tree.root.split_column == _expected_root_split(rowwise)
