"""Columnar bitset mining: the bit-parallel A-Miner the closure loop runs.

The row-wise reference miner (:mod:`repro.mining.dataset` /
:mod:`repro.mining.decision_tree`) materialises one Python dict per
mining window and re-reads every feature bit per row during induction,
so tree induction is a per-row interpreted loop.  This module stores the
same data *columnar*, mirroring the lane-packing trick of
:mod:`repro.sim.batched`, and does each piece of mining work once:

* :class:`ColumnarDataset` keeps each feature column (and the target) as
  one Python big int whose bit ``i`` is the column's value in row ``i``.
  :meth:`ColumnarDataset.add_trace`, which the closure feeds the seed
  trace and every counterexample replay, packs each ``(signal, bit)``
  history of a trace into one int once (:func:`pack_history`, a
  ``bytes.translate`` in C) and cuts every feature column out of it with
  a shift and a mask — no loop runs per row;
* :class:`ColumnarDecisionTree` gives each node a *row mask* big int
  selecting the rows that reach it, so every candidate split gain is two
  ``&`` operations and three popcounts (``int.bit_count`` where
  available, a ``bin().count`` fallback on 3.10) over
  machine-word-packed data;
* each pure leaf's candidate :class:`~repro.assertions.assertion.Assertion`
  is built once and kept on the leaf until new rows reach it
  (:meth:`ColumnarDecisionTree.assertion_for_leaf`), so an iteration
  builds candidates only for the leaves that changed;
* :meth:`ColumnarDataset.add_lane_block` ingests the batched simulator's
  lane-packed words directly (a feature column is a shift-OR of whole
  lane words per cycle); no production path feeds it.

Both engines implement the same variance-error induction (paper
Figure 2) with the same exact split ranking and column-order tie-break
(:func:`repro.mining.decision_tree.child_error_fraction`), so they
produce node-for-node identical trees and identical candidate
assertions — ``tests/mining/test_columnar_differential.py`` holds them
to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.assertions.assertion import Assertion
from repro.hdl.module import Module
from repro.hdl.synth import SynthesizedModule
from repro.mining.dataset import FeatureSpec, enumerate_features, resolve_target
from repro.mining.decision_tree import child_error_fraction, fraction_less
from repro.sim.trace import Trace

try:
    popcount = int.bit_count  # Python >= 3.11: one C call per lane word
except AttributeError:  # pragma: no cover - Python 3.10 fallback
    def popcount(value: int) -> int:
        """Number of set bits (``int.bit_count`` arrived in 3.11)."""
        return bin(value).count("1")


#: ``bytes.translate`` tables mapping a byte to ``b"1"`` or ``b"0"``: one
#: per bit 0-7, and one for ``bit is None`` (nonzero reads as 1).
_BIT_TABLES = tuple(
    bytes(ord("1") if (value >> bit) & 1 else ord("0") for value in range(256))
    for bit in range(8))
_NONZERO_TABLE = b"0" + b"1" * 255


def pack_history(history: Sequence[int], bit: int | None) -> int:
    """Pack one signal bit's history into an int; bit ``i`` is cycle ``i``.

    ``bit`` is ``None`` for a whole-signal feature, which reads nonzero as
    1.  When every value fits a byte and ``bit < 8``, the history becomes
    a binary string in C (``bytes`` + ``translate``); otherwise ``bytes``
    raises and a per-value string join builds it instead.
    """
    if not history:
        return 0
    if bit is None or bit < 8:
        try:
            text = bytes(reversed(history)).translate(
                _NONZERO_TABLE if bit is None else _BIT_TABLES[bit])
        except ValueError:  # a value of 256 or more
            pass
        else:
            return int(text, 2)
    if bit is None:
        return int("".join("1" if value else "0" for value in reversed(history)), 2)
    return int("".join("1" if (value >> bit) & 1 else "0"
                       for value in reversed(history)), 2)


@dataclass
class ColumnarDataset:
    """Bitset-per-column mining data for one output of one module.

    The constructor mirrors :class:`~repro.mining.dataset.MiningDataset`
    (same arguments, same feature/target placement via the shared
    :func:`~repro.mining.dataset.resolve_target` /
    :func:`~repro.mining.dataset.enumerate_features` helpers), but rows
    are stored as bit positions: ``columns[feature]`` holds bit ``i`` set
    iff row ``i`` has a nonzero value in that feature's column, and
    ``target_bits`` holds the target column the same way.  ``columns`` is
    keyed by the :class:`~repro.mining.dataset.FeatureSpec` itself, in
    feature enumeration order (the split tie-break order); the feature
    space is fixed at construction.
    """

    module: Module
    output: str
    window: int = 1
    output_bit: int | None = None
    include_internal_state: bool = True
    synth: SynthesizedModule | None = None

    target: FeatureSpec = field(init=False)
    n_rows: int = field(init=False, default=0)
    columns: dict[FeatureSpec, int] = field(init=False, default_factory=dict)
    target_bits: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.synth, self._sequential_target, self.target = resolve_target(
            self.module, self.output, self.window, self.output_bit, self.synth)
        self.columns = dict.fromkeys(enumerate_features(
            self.module, self.output, self.window, self.synth,
            include_internal_state=self.include_internal_state,
            sequential_target=self._sequential_target,
            target_cycle=self.target.cycle,
        ), 0)
        #: The features of each ``(signal, bit)`` history, for add_trace.
        self._histories: dict[tuple[str, int | None], list[FeatureSpec]] = {}
        for feature in self.columns:
            self._histories.setdefault((feature.signal, feature.bit), []).append(feature)

    # ------------------------------------------------------------------
    @property
    def is_sequential_target(self) -> bool:
        return self._sequential_target

    @property
    def span(self) -> int:
        """Number of trace cycles one row consumes."""
        return self.target.cycle + 1

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

        The trace is transposed once, and each distinct ``(signal, bit)``
        history is packed once into a big int whose bit ``i`` is that bit
        at cycle ``i`` (:func:`pack_history`).  A feature at window offset
        ``o`` is then that history shifted right by ``o`` and cut to the
        trace's row count, so no Python loop runs per row.
        """
        span = self.span
        if len(trace) < span:
            return 0
        count = len(trace) - span + 1
        base = self.n_rows
        row_bits = (1 << count) - 1
        signals = dict(zip(trace.columns, zip(*trace.rows)))
        columns = self.columns
        packed: dict[tuple[str, int | None], int] = {}
        for key, features in self._histories.items():
            history = packed[key] = pack_history(signals[key[0]], key[1])
            for feature in features:
                bits = (history >> feature.cycle) & row_bits
                if bits:
                    columns[feature] |= bits << base
        target = self.target
        key = (target.signal, target.bit)
        history = packed[key] if key in packed else pack_history(signals[key[0]], key[1])
        bits = (history >> target.cycle) & row_bits
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
        columns = self.columns
        for feature in columns:
            signal, offset = feature.signal, feature.cycle
            bit = feature.bit or 0
            bits = 0
            for start in range(starts):
                bits |= block.word(signal, bit, start + offset) << (start * lanes)
            if bits:
                columns[feature] |= bits << base
        signal, offset = self.target.signal, self.target.cycle
        bit = self.target.bit or 0
        bits = 0
        for start in range(starts):
            bits |= block.word(signal, bit, start + offset) << (start * lanes)
        if bits:
            self.target_bits |= bits << base
        self.n_rows += starts * lanes
        return starts * lanes

    def target_values(self) -> list[int]:
        return [(self.target_bits >> row) & 1 for row in range(self.n_rows)]

    def column_values(self, feature: FeatureSpec) -> list[int]:
        bits = self.columns[feature]
        return [(bits >> row) & 1 for row in range(self.n_rows)]


@dataclass
class ColumnarTreeNode:
    """One node of a columnar tree: rows are a bitset, stats are popcounts.

    Semantically equivalent to :class:`~repro.mining.decision_tree.TreeNode`
    with ``mask`` in place of the row-index list: ``count`` is the number
    of rows reaching the node (``popcount(mask)``) and ``ones`` the
    number of those whose target is 1.  Path steps and the split hold the
    :class:`~repro.mining.dataset.FeatureSpec` itself, not its name.
    ``candidate`` memoises the leaf's assertion
    (:meth:`ColumnarDecisionTree.assertion_for_leaf`); routing new rows
    to the node clears it, so its ``support`` always equals ``count``.
    """

    path: tuple[tuple[FeatureSpec, int], ...] = ()
    mask: int = 0
    count: int = 0
    ones: int = 0
    split_column: FeatureSpec | None = None
    children: dict[int, "ColumnarTreeNode"] = field(default_factory=dict)
    candidate: Assertion | None = field(default=None, compare=False, repr=False)

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
            f"{feature.column}={value}" for feature, value in self.path
        ) or "<root>"
        split = self.split_column and self.split_column.column
        return (f"{condition}: n={self.count} M={self.mean:.3f} "
                f"E={self.error:.3f} split={split}")


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
        self.max_depth = max_depth if max_depth is not None else len(dataset.columns)
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

    def _select_split_column(self, node: ColumnarTreeNode) -> FeatureSpec | None:
        """Pick the column minimising the summed child error (Figure 2).

        The ranking fraction and column-order tie-break are shared with
        the row-wise engine (:func:`child_error_fraction`): per column
        this is one AND with the node mask, one AND with the target
        column, and two popcounts.  A column already on the node's path
        reads one value on every row reaching the node, so the
        separation test below skips it with no separate check.
        """
        target = self.dataset.target_bits
        mask = node.mask
        total = node.count
        total_ones = node.ones
        best_column: FeatureSpec | None = None
        best_key: tuple[int, int] | None = None
        for feature, column in self.dataset.columns.items():
            one_mask = mask & column
            one_count = popcount(one_mask)
            if not one_count or one_count == total:
                continue  # the column does not separate anything at this node
            one_ones = popcount(one_mask & target)
            key = child_error_fraction(total_ones - one_ones, total - one_count,
                                       one_ones, one_count)
            if best_key is None or fraction_less(key, best_key):
                best_key = key
                best_column = feature
        return best_column

    def _apply_split(self, node: ColumnarTreeNode, feature: FeatureSpec) -> None:
        one_mask = node.mask & self.dataset.columns[feature]
        zero_mask = node.mask ^ one_mask
        node.split_column = feature
        node.children = {
            0: self._make_node(node.path + ((feature, 0),), zero_mask),
            1: self._make_node(node.path + ((feature, 1),), one_mask),
        }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def leaves(self) -> list[ColumnarTreeNode]:
        return list(self.root.iter_leaves())

    def node_count(self) -> int:
        return sum(1 for _ in self.root.iter_nodes())

    # ------------------------------------------------------------------
    # candidate assertion extraction
    # ------------------------------------------------------------------
    def assertion_for_leaf(self, leaf: ColumnarTreeNode) -> Assertion:
        """Turn one pure leaf into a candidate assertion, built once per
        leaf state (memoised on ``leaf.candidate``)."""
        candidate = leaf.candidate
        if candidate is None:
            candidate = leaf.candidate = Assertion(
                antecedent=tuple(feature.to_literal(value)
                                 for feature, value in leaf.path),
                consequent=self.dataset.target.to_literal(leaf.prediction),
                window=self.dataset.window,
                confidence=1.0,
                support=leaf.count,
            )
        return candidate

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
        # ``mask`` holds new rows only, none of them already in the node.
        node.mask |= mask
        node.count += popcount(mask)
        node.ones += popcount(mask & self.dataset.target_bits)
        node.candidate = None
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
                node.split_column.column,
                walk(node.children[0]),
                walk(node.children[1]),
            )

        return walk(self.root)
