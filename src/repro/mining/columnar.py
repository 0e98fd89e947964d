"""Columnar bitset mining: the bit-parallel A-Miner the closure loop runs.

The row-wise reference miner (:mod:`repro.mining.dataset` /
:mod:`repro.mining.decision_tree`) materialises one Python dict per
mining window and re-reads every feature bit per row during induction,
so tree induction is a per-row interpreted loop.  This module stores the
same data *columnar*, mirroring the lane-packing trick of
:mod:`repro.sim.batched`:

* :class:`ColumnarDataset` keeps each feature column (and the target) as
  one Python big int whose bit ``i`` is the column's value in row ``i``;
* :class:`ColumnarDecisionTree` gives each node a *row mask* big int
  selecting the rows that reach it, so every candidate split gain is two
  ``&`` operations and three popcounts (``int.bit_count`` where
  available, a ``bin().count`` fallback on 3.10) over
  machine-word-packed data — no per-row Python objects anywhere on the
  induction path;
* :meth:`ColumnarDataset.add_lane_block` ingests the batched simulator's
  lane-packed words directly (transpose-free): a feature column is built
  by shift-OR-ing whole lane words, one big-int operation per simulated
  cycle per column, without ever widening the trace to per-row dicts.

Both engines implement the same variance-error induction (paper
Figure 2) with the same exact split ranking and column-order tie-break
(:func:`repro.mining.decision_tree.child_error_fraction`), so they
produce node-for-node identical trees and identical candidate
assertions — ``tests/mining/test_columnar_differential.py`` holds them
to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.assertions.assertion import Assertion, Literal
from repro.hdl.module import Module
from repro.hdl.synth import SynthesizedModule
from repro.mining.dataset import (
    FeatureSpec,
    TargetSpec,
    enumerate_features,
    iter_window_values,
    resolve_target,
)
from repro.mining.decision_tree import child_error_fraction, fraction_less
from repro.sim.trace import Trace

try:
    popcount = int.bit_count  # Python >= 3.11: one C call per lane word
except AttributeError:  # pragma: no cover - Python 3.10 fallback
    def popcount(value: int) -> int:
        """Number of set bits (``int.bit_count`` arrived in 3.11)."""
        return bin(value).count("1")


@dataclass
class ColumnarDataset:
    """Bitset-per-column mining data for one output of one module.

    The public surface mirrors :class:`~repro.mining.dataset.MiningDataset`
    (same constructor arguments, same feature/target placement via the
    shared :func:`~repro.mining.dataset.resolve_target` /
    :func:`~repro.mining.dataset.enumerate_features` helpers, same
    ``add_trace``/``add_window`` ingestion), but rows are stored as bit
    positions: ``columns[name]`` holds bit ``i`` set iff row ``i`` has a
    nonzero value in that column, and ``target_bits`` holds the target
    column the same way.
    """

    module: Module
    output: str
    window: int = 1
    output_bit: int | None = None
    include_internal_state: bool = True
    synth: SynthesizedModule | None = None

    features: list[FeatureSpec] = field(init=False, default_factory=list)
    target: TargetSpec = field(init=False)
    n_rows: int = field(init=False, default=0)
    columns: dict[str, int] = field(init=False, default_factory=dict)
    target_bits: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.synth, self._sequential_target, self.target = resolve_target(
            self.module, self.output, self.window, self.output_bit, self.synth)
        self.features = enumerate_features(
            self.module, self.output, self.window, self.synth,
            include_internal_state=self.include_internal_state,
            sequential_target=self._sequential_target,
            target_cycle=self.target.cycle,
        )
        self.columns = {feature.column: 0 for feature in self.features}

    # ------------------------------------------------------------------
    @property
    def is_sequential_target(self) -> bool:
        return self._sequential_target

    @property
    def span(self) -> int:
        """Number of trace cycles one row consumes."""
        return self.target.cycle + 1

    @property
    def feature_columns(self) -> list[str]:
        return [feature.column for feature in self.features]

    @property
    def row_mask(self) -> int:
        """Bitset selecting every row currently in the dataset."""
        return (1 << self.n_rows) - 1

    def rows_since(self, start: int) -> int:
        """Bitset selecting the rows appended at index ``start`` onwards."""
        return self.row_mask & ~((1 << start) - 1)

    def __len__(self) -> int:
        return self.n_rows

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def add_trace(self, trace: Trace) -> int:
        """Extract every window from ``trace``; returns the rows added.

        Columns are built signal-major: each signal's cycle history is
        read off the trace once and every feature bit of that signal is
        sliced from it — the columnar counterpart of the row-wise
        dataset's once-per-row signal extraction.
        """
        span = self.span
        if len(trace) < span:
            return 0
        count = len(trace) - span + 1
        base = self.n_rows
        histories: dict[str, list[int]] = {}

        def history_of(name: str) -> list[int]:
            history = histories.get(name)
            if history is None:
                history = trace.column(name)
                histories[name] = history
            return history

        for feature in self.features:
            history = history_of(feature.signal)
            offset, bit = feature.cycle, feature.bit
            bits = 0
            if bit is None:
                for row in range(count):
                    if history[row + offset]:
                        bits |= 1 << row
            else:
                for row in range(count):
                    if (history[row + offset] >> bit) & 1:
                        bits |= 1 << row
            if bits:
                self.columns[feature.column] |= bits << base
        history = history_of(self.target.signal)
        offset, bit = self.target.cycle, self.target.bit
        bits = 0
        for row in range(count):
            value = history[row + offset]
            if value if bit is None else (value >> bit) & 1:
                bits |= 1 << row
        if bits:
            self.target_bits |= bits << base
        self.n_rows += count
        return count

    def add_traces(self, traces: Iterable[Trace]) -> int:
        """Extract windows from several traces; returns total rows added."""
        return sum(self.add_trace(trace) for trace in traces)

    def add_lane_block(self, block) -> int:
        """Fold a lane-packed simulation block in, transpose-free.

        ``block`` is a :class:`repro.sim.batched.LaneWordBlock`: for every
        cycle and signal bit it holds one *lane word* whose bit ``l`` is
        that signal bit's value in lane ``l``.  Rows are enumerated
        window-start-major (all lanes of start 0, then start 1, ...), so
        the feature column for window offset ``o`` is exactly the
        concatenation of the lane words at cycles ``o, o+1, ...`` — one
        shift-OR of a whole lane word per cycle per column.  The row
        *order* differs from the per-lane trace path (which is
        lane-major), but the row multiset is identical and tree induction
        only consumes counts, so the resulting trees are the same.

        Ragged blocks (per-lane lengths differing) fall back to the
        per-lane trace path; ``BatchedSimulator.run_random_block`` always
        produces equal-length lanes.
        """
        lanes = block.lanes
        cycles = block.cycles
        if block.lengths is not None and (
                len(block.lengths) != lanes
                or any(length != cycles for length in block.lengths)):
            return self.add_traces(block.to_traces())
        span = self.span
        if cycles < span:
            return 0
        starts = cycles - span + 1
        base = self.n_rows
        for feature in self.features:
            signal, offset = feature.signal, feature.cycle
            bit = feature.bit or 0
            bits = 0
            for start in range(starts):
                bits |= block.word(signal, bit, start + offset) << (start * lanes)
            if bits:
                self.columns[feature.column] |= bits << base
        signal, offset = self.target.signal, self.target.cycle
        bit = self.target.bit or 0
        bits = 0
        for start in range(starts):
            bits |= block.word(signal, bit, start + offset) << (start * lanes)
        if bits:
            self.target_bits |= bits << base
        self.n_rows += starts * lanes
        return starts * lanes

    def add_window(self, valuations: Mapping[int, Mapping[str, int]]) -> bool:
        """Add one explicit window of per-offset valuations."""
        row_bit = 1 << self.n_rows
        for feature, value in iter_window_values(self.features, valuations):
            if value:
                self.columns[feature.column] |= row_bit
        if self.target.extract(valuations[self.target.cycle]):
            self.target_bits |= row_bit
        self.n_rows += 1
        return True

    # ------------------------------------------------------------------
    def feature_literal(self, column: str, value: int) -> Literal:
        """Convert a feature column name + value back into a Literal."""
        for feature in self.features:
            if feature.column == column:
                return feature.to_literal(value)
        raise KeyError(f"unknown feature column '{column}'")

    def add_feature(self, spec: FeatureSpec) -> None:
        """Extend the feature space (mirrors the row-wise dataset: the new
        column reads 0 for every existing row)."""
        if spec.column in self.columns:
            return
        self.features.append(spec)
        self.columns[spec.column] = 0

    def target_values(self) -> list[int]:
        return [(self.target_bits >> row) & 1 for row in range(self.n_rows)]

    def column_values(self, column: str) -> list[int]:
        bits = self.columns.get(column, 0)
        return [(bits >> row) & 1 for row in range(self.n_rows)]

    def row_tuples(self) -> list[tuple[tuple[int, ...], int]]:
        """Rows widened back to per-row tuples (testing/reporting only)."""
        names = self.feature_columns
        return [
            (tuple((self.columns[name] >> row) & 1 for name in names),
             (self.target_bits >> row) & 1)
            for row in range(self.n_rows)
        ]

    def distinct_rows(self) -> int:
        """Number of distinct feature/target rows (duplicates collapse)."""
        return len(set(self.row_tuples()))


def diff_trees(rowwise_root, columnar_root, tolerance: float = 1e-9) -> list[str]:
    """Structural differences between a row-wise and a columnar tree.

    Walks both trees in lockstep comparing path, split column, row count,
    prediction and (within float ``tolerance``) mean/error.  An empty
    list means the trees are node-for-node identical — the contract the
    differential suite and the benchmark divergence gate both enforce.
    ``rowwise_root`` is a :class:`~repro.mining.decision_tree.TreeNode`
    (row-index lists), ``columnar_root`` a :class:`ColumnarTreeNode`
    (bitset masks).
    """
    differences: list[str] = []

    def walk(a, b) -> None:
        where = " & ".join(f"{c}={v}" for c, v in a.path) or "<root>"
        if a.path != b.path:
            differences.append(f"{where}: path {a.path} != {b.path}")
            return
        if a.split_column != b.split_column:
            differences.append(
                f"{where}: split {a.split_column} != {b.split_column}")
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


@dataclass
class ColumnarTreeNode:
    """One node of a columnar tree: rows are a bitset, stats are popcounts.

    Semantically equivalent to :class:`~repro.mining.decision_tree.TreeNode`
    with ``mask`` in place of the row-index list: ``count`` is the number
    of rows reaching the node (``popcount(mask)``) and ``ones`` the
    number of those whose target is 1.
    """

    path: tuple[tuple[str, int], ...] = ()
    mask: int = 0
    count: int = 0
    ones: int = 0
    split_column: str | None = None
    children: dict[int, "ColumnarTreeNode"] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self.path)

    @property
    def is_leaf(self) -> bool:
        return self.split_column is None

    @property
    def mean(self) -> float:
        return self.ones / self.count if self.count else 0.0

    @property
    def error(self) -> float:
        """Sum of squared deviations, ``k*(n-k)/n`` for a binary target."""
        if not self.count:
            return 0.0
        return self.ones * (self.count - self.ones) / self.count

    @property
    def prediction(self) -> int:
        # Exact-integer form of the row-wise engine's ``mean >= 0.5``.
        return 1 if self.count and 2 * self.ones >= self.count else 0

    @property
    def is_pure(self) -> bool:
        return self.count > 0 and (self.ones == 0 or self.ones == self.count)

    def used_columns(self) -> set[str]:
        return {column for column, _ in self.path}

    def iter_nodes(self) -> Iterator["ColumnarTreeNode"]:
        yield self
        for child in self.children.values():
            yield from child.iter_nodes()

    def iter_leaves(self) -> Iterator["ColumnarTreeNode"]:
        if self.is_leaf:
            yield self
        else:
            for child in self.children.values():
                yield from child.iter_leaves()

    def describe(self) -> str:
        condition = " & ".join(
            f"{column}={value}" for column, value in self.path
        ) or "<root>"
        return (f"{condition}: n={self.count} M={self.mean:.3f} "
                f"E={self.error:.3f} split={self.split_column}")


class ColumnarDecisionTree:
    """Decision tree over a :class:`ColumnarDataset` built from scratch.

    The induction algorithm is the paper's Figure 2, identical to
    :class:`~repro.mining.decision_tree.DecisionTree`; only the data
    representation differs.  All statistics come from popcounts on
    ``column & mask`` intersections, so induction cost scales with the
    number of candidate columns and tree nodes — not with a per-row
    interpreted loop.
    """

    def __init__(self, dataset: ColumnarDataset, max_depth: int | None = None):
        self.dataset = dataset
        self.max_depth = max_depth if max_depth is not None else len(dataset.features)
        self.root = ColumnarTreeNode()
        self._built = False

    # ------------------------------------------------------------------
    def build(self) -> ColumnarTreeNode:
        """(Re)build the whole tree from the dataset's current rows."""
        self.root = self._make_node((), self.dataset.row_mask)
        self._split_recursively(self.root)
        self._built = True
        return self.root

    # ------------------------------------------------------------------
    # node-level operations shared with the incremental tree
    # ------------------------------------------------------------------
    def _make_node(self, path: tuple, mask: int) -> ColumnarTreeNode:
        return ColumnarTreeNode(
            path=path,
            mask=mask,
            count=popcount(mask),
            ones=popcount(mask & self.dataset.target_bits),
        )

    def _split_recursively(self, node: ColumnarTreeNode) -> None:
        if node.ones == 0 or node.ones == node.count:  # zero error (or empty)
            return
        if node.depth >= self.max_depth:
            return
        column = self._select_split_column(node)
        if column is None:
            return
        self._apply_split(node, column)
        for child in node.children.values():
            self._split_recursively(child)

    def _select_split_column(self, node: ColumnarTreeNode) -> str | None:
        """Pick the column minimising the summed child error (Figure 2).

        The ranking fraction and column-order tie-break are shared with
        the row-wise engine (:func:`child_error_fraction`): per column
        this is one AND with the node mask, one AND with the target
        column, and two popcounts.
        """
        dataset = self.dataset
        columns = dataset.columns
        target = dataset.target_bits
        mask = node.mask
        used = node.used_columns()
        total = node.count
        total_ones = node.ones
        best_column: str | None = None
        best_key: tuple[int, int] | None = None
        for feature in dataset.features:
            column = feature.column
            if column in used:
                continue
            one_mask = mask & columns[column]
            one_count = popcount(one_mask)
            if not one_count or one_count == total:
                continue  # the column does not separate anything at this node
            one_ones = popcount(one_mask & target)
            key = child_error_fraction(total_ones - one_ones, total - one_count,
                                       one_ones, one_count)
            if best_key is None or fraction_less(key, best_key):
                best_key = key
                best_column = column
        return best_column

    def _apply_split(self, node: ColumnarTreeNode, column: str) -> None:
        one_mask = node.mask & self.dataset.columns[column]
        zero_mask = node.mask ^ one_mask
        node.split_column = column
        node.children = {
            0: self._make_node(node.path + ((column, 0),), zero_mask),
            1: self._make_node(node.path + ((column, 1),), one_mask),
        }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def leaves(self) -> list[ColumnarTreeNode]:
        return list(self.root.iter_leaves())

    def node_count(self) -> int:
        return sum(1 for _ in self.root.iter_nodes())

    def predict(self, feature_values: dict[str, int]) -> int:
        node = self.root
        while not node.is_leaf:
            branch = 1 if feature_values.get(node.split_column, 0) else 0
            node = node.children[branch]
        return node.prediction

    def route(self, feature_values: dict[str, int]) -> list[ColumnarTreeNode]:
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
    def assertion_for_leaf(self, leaf: ColumnarTreeNode) -> Assertion:
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
            support=leaf.count,
        )

    def default_assertion(self, value: int = 0) -> Assertion:
        """The zero-knowledge assertion used when no data exists yet
        (Section 7.2's "output always 0")."""
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
        if not self.dataset.n_rows:
            return [self.default_assertion()]
        return [self.assertion_for_leaf(leaf) for leaf in self.leaves()
                if leaf.is_pure]

    def impure_leaves(self) -> list[ColumnarTreeNode]:
        """Leaves whose examples disagree (no 100 %-confidence rule exists)."""
        if not self._built:
            self.build()
        return [leaf for leaf in self.leaves() if 0 < leaf.ones < leaf.count]

    def dump(self) -> str:
        """Multi-line textual rendering of the tree (debugging/inspection)."""
        lines = []
        for node in self.root.iter_nodes():
            lines.append("  " * node.depth + node.describe())
        return "\n".join(lines)


class ColumnarIncrementalDecisionTree(ColumnarDecisionTree):
    """Counterexample-driven incremental tree over columnar data.

    The algorithm mirrors
    :class:`~repro.mining.incremental_tree.IncrementalDecisionTree`
    (paper Section 3, Definition 6): existing splits are preserved, new
    rows are routed down the structure, and only leaves whose error
    becomes non-zero re-split.  Routing is itself bit-parallel — *all*
    new rows descend together as one mask, partitioned per node by a
    single AND with the split column.
    """

    def __init__(self, dataset: ColumnarDataset, max_depth: int | None = None):
        super().__init__(dataset, max_depth)
        self.iterations = 0
        #: Number of rows already incorporated into the tree structure.
        self._consumed_rows = 0

    # ------------------------------------------------------------------
    def build(self) -> ColumnarTreeNode:
        """Initial build over whatever rows the dataset currently holds."""
        root = super().build()
        self._consumed_rows = self.dataset.n_rows
        return root

    # ------------------------------------------------------------------
    def absorb_new_rows(self) -> list[ColumnarTreeNode]:
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
        new_mask = self.dataset.rows_since(self._consumed_rows)
        self._consumed_rows = self.dataset.n_rows
        touched: list[ColumnarTreeNode] = []
        if new_mask:
            self._route_mask(self.root, new_mask, touched)
        refined: list[ColumnarTreeNode] = []
        for leaf in touched:
            if 0 < leaf.ones < leaf.count:
                self._split_recursively(leaf)
                refined.append(leaf)
        if refined:
            self.iterations += 1
        return refined

    def _route_mask(self, node: ColumnarTreeNode, mask: int,
                    touched: list[ColumnarTreeNode]) -> None:
        """Send a whole bitset of new rows down the existing structure."""
        node.mask |= mask
        node.count = popcount(node.mask)
        node.ones = popcount(node.mask & self.dataset.target_bits)
        if node.is_leaf:
            touched.append(node)
            return
        one_mask = mask & self.dataset.columns[node.split_column]
        zero_mask = mask ^ one_mask
        if zero_mask:
            self._route_mask(node.children[0], zero_mask, touched)
        if one_mask:
            self._route_mask(node.children[1], one_mask, touched)

    # ------------------------------------------------------------------
    def add_windows(self, windows: Iterable[Mapping[int, Mapping[str, int]]]
                    ) -> list[ColumnarTreeNode]:
        """Add explicit windows to the dataset and absorb them."""
        for window in windows:
            self.dataset.add_window(window)
        return self.absorb_new_rows()

    def add_trace(self, trace) -> list[ColumnarTreeNode]:
        """Add every window of a (counterexample) trace and absorb them."""
        self.dataset.add_trace(trace)
        return self.absorb_new_rows()

    # ------------------------------------------------------------------
    def is_final(self, proven: Sequence[Assertion]) -> bool:
        """Definition 7: every leaf's assertion is formally true."""
        proven_set = set(proven)
        for leaf in self.leaves():
            if not leaf.count:
                continue
            if 0 < leaf.ones < leaf.count:
                return False
            if self.assertion_for_leaf(leaf) not in proven_set:
                return False
        return True

    def structure_signature(self) -> tuple:
        """Hashable summary of the tree structure (used by ablation tests)."""

        def walk(node: ColumnarTreeNode) -> tuple:
            if node.is_leaf:
                return ("leaf", node.prediction if node.count else None)
            return (
                node.split_column,
                walk(node.children[0]),
                walk(node.children[1]),
            )

        return walk(self.root)
