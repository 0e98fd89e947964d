"""Explicit-state model checking of mined assertions.

For every reachable state and every input sequence of the assertion's
window length, the engine replays the window and checks the implication.
Because the traversal starts from the reset state, only legal, reachable
behaviour is examined — matching the paper's argument that GoldMine's
dynamic flow "generates only the reachable state of an output" (Section
3.2).  A violation yields a counterexample consisting of the input
sequence from reset to the offending state followed by the violating
window inputs.

The replays are shared between assertions through a *window table*, one
per ``(window, span)`` key.  Row ``r`` of a table is the window that
starts in reachable state ``r // |I|**window`` (in :meth:`StateSpace.explore`
order) under input sequence ``r % |I|**window`` (in
``itertools.product(input_vectors, repeat=window)`` order); offsets at or
past the window step with the padding vector.  The rows are cut into
blocks of :data:`BLOCK_ROWS`, built lazily in row order.  A block holds
one column of sampled valuations per offset and memoises, per literal, a
big-int mask whose bit ``i`` says whether the literal holds on row ``i``.
A check ANDs the antecedent masks, clears the rows where the consequent
holds, and stops at the first block with a bit left: its lowest set bit
is the first violating row in row order, so verdicts and counterexamples
do not depend on the block size.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

from repro.assertions.assertion import Assertion, Literal
from repro.formal.result import (
    CheckResult,
    Counterexample,
    false_result,
    true_result,
)
from repro.formal.statespace import State, StateSpace
from repro.hdl.module import Module

#: Rows per window-table block.
BLOCK_ROWS = 1 << 16
#: Rows of blocks one checker keeps between checks, over all its tables.
#: Once its kept blocks reach the budget, later blocks are built, scanned
#: and dropped on every check (so the kept blocks stay a prefix of each
#: table, and the budget is exceeded by at most one block).
RETAINED_ROWS = 1 << 18


class _Block:
    """Rows ``start .. start + rows - 1`` of one window table."""

    __slots__ = ("start", "rows", "columns", "masks")

    def __init__(self, start: int, columns: list[list[Mapping[str, int]]]):
        self.start = start
        self.rows = len(columns[0])
        #: ``columns[offset][i]``: sampled valuation of row ``start + i``.
        self.columns = columns
        self.masks: dict[Literal, int] = {}


class _WindowTable:
    """Lazily built blocks of one ``(window, span)`` row table."""

    def __init__(self, states: list[State], inputs: int, window: int, span: int):
        self.states = states
        self.window = window
        #: Offsets a row samples: the window's inputs, then padding up to
        #: the span (a consequent may also lie before the window's end).
        self.depth = max(window, span)
        self.inputs = inputs
        self.per_state = inputs ** window
        self.rows = len(states) * self.per_state
        self.blocks: list[_Block] = []


class ExplicitModelChecker:
    """Exact checker for designs with small state spaces."""

    name = "explicit"

    def __init__(self, module: Module, max_states: int = 50_000,
                 max_input_combinations: int = 4_096,
                 pinned_inputs: Mapping[str, int] | None = None):
        self.module = module
        self.state_space = StateSpace(
            module,
            max_states=max_states,
            max_input_combinations=max_input_combinations,
            pinned_inputs=pinned_inputs or {},
        )
        # Idle cycles after the window: every free input 0, pins kept.
        # That is input vector 0 of the state space's enumeration, so the
        # table steps padding cycles through ``successors(state)[0]``.
        self._padding_vector = {name: 0 for name in module.data_input_names}
        self._padding_vector.update(
            (name, int(value)) for name, value in self.state_space.pinned_inputs.items()
        )
        if module.reset is not None:
            self._padding_vector[module.reset] = 0
        self._input_vectors = self.state_space.input_vectors
        self._tables: dict[tuple[int, int], _WindowTable] = {}
        self._retained_rows = 0
        self._built_rows = 0
        self._built_blocks = 0
        self._built_masks = 0

    # ------------------------------------------------------------------
    def check(self, assertion: Assertion) -> CheckResult:
        """Check one assertion; exact verdict with counterexample on failure."""
        start = time.perf_counter()
        reachable = self.state_space.explore()
        window = max(assertion.window, 1)
        span = assertion.consequent.cycle + 1
        table = self._table(window, span)
        for block in self._blocks(table):
            violations = (1 << block.rows) - 1
            for literal in assertion.antecedent:
                violations &= self._mask(block, literal)
                if not violations:
                    break
            else:
                violations &= ~self._mask(block, assertion.consequent)
            if not violations:
                continue
            row = block.start + (violations & -violations).bit_length() - 1
            state, sequence = self._decode(table, row)
            counterexample = self._build_counterexample(
                assertion, state, sequence, span
            )
            elapsed = time.perf_counter() - start
            return false_result(
                assertion, counterexample, self.name, elapsed,
                reachable_states=len(reachable),
            )
        elapsed = time.perf_counter() - start
        return true_result(
            assertion, self.name, elapsed, reachable_states=len(reachable)
        )

    def reuse_stats(self) -> dict[str, int]:
        """Work done: window-table rows, blocks and literal masks built, and
        the transitions (lanes) and settle+edge batches exploration ran."""
        return {
            "explicit_rows": self._built_rows,
            "explicit_blocks": self._built_blocks,
            "explicit_masks": self._built_masks,
            "explicit_transitions": self.state_space.simulated_transitions,
            "explicit_levels": self.state_space.simulated_batches,
        }

    # ------------------------------------------------------------------
    # window table
    # ------------------------------------------------------------------
    def _table(self, window: int, span: int) -> _WindowTable:
        table = self._tables.get((window, span))
        if table is None:
            table = _WindowTable(self.state_space.explore(),
                                 len(self._input_vectors), window, span)
            self._tables[(window, span)] = table
        return table

    def _blocks(self, table: _WindowTable):
        """Every block of ``table`` in row order; retains new ones in budget."""
        yield from table.blocks
        start = sum(block.rows for block in table.blocks)
        while start < table.rows:
            block = self._build_block(table, start)
            if self._retained_rows < RETAINED_ROWS:
                self._retained_rows += block.rows
                table.blocks.append(block)
            yield block
            start += block.rows

    def _build_block(self, table: _WindowTable, start: int) -> _Block:
        stop = min(start + BLOCK_ROWS, table.rows)
        columns: list[list[Mapping[str, int]]] = [[] for _ in range(table.depth)]
        row = start
        while row < stop:
            state_index, first = divmod(row, table.per_state)
            last = min(table.per_state, first + stop - row)
            self._fill(table, table.states[state_index], 0, first, last, columns)
            row += last - first
        self._built_rows += stop - start
        self._built_blocks += 1
        return _Block(start, columns)

    def _fill(self, table: _WindowTable, state: State, offset: int,
              first: int, last: int, columns: list[list[Mapping[str, int]]]) -> None:
        """Append rows ``first .. last-1`` of the sequences from ``state`` at
        ``offset`` (``|I|**(window - offset)`` of them) to ``columns``."""
        successors = self.state_space.successors
        transitions = successors(state)
        if offset == table.window - 1:
            column = columns[offset]
            for next_state, sampled in transitions[first:last]:
                column.append(sampled)
                current = next_state
                for padding in range(offset + 1, table.depth):
                    current, sampled = successors(current)[0]
                    columns[padding].append(sampled)
            return
        subtree = table.inputs ** (table.window - offset - 1)
        for index in range(first // subtree, (last - 1) // subtree + 1):
            next_state, sampled = transitions[index]
            low = max(first - index * subtree, 0)
            high = min(last - index * subtree, subtree)
            columns[offset].extend([sampled] * (high - low))
            self._fill(table, next_state, offset + 1, low, high, columns)

    def _mask(self, block: _Block, literal: Literal) -> int:
        """Rows of ``block`` on which ``literal`` holds, as a bitmask."""
        mask = block.masks.get(literal)
        if mask is None:
            signal, value, bit = literal.signal, literal.value, literal.bit
            column = block.columns[literal.cycle]
            if bit is None:
                bits = ["1" if valuation[signal] == value else "0"
                        for valuation in reversed(column)]
            else:
                bits = ["1" if (valuation[signal] >> bit) & 1 == value else "0"
                        for valuation in reversed(column)]
            mask = block.masks[literal] = int("".join(bits), 2)
            self._built_masks += 1
        return mask

    def _decode(self, table: _WindowTable, row: int
                ) -> tuple[State, list[Mapping[str, int]]]:
        """The (start state, window input sequence) of table row ``row``."""
        state_index, index = divmod(row, table.per_state)
        sequence: list[Mapping[str, int]] = []
        for _ in range(table.window):
            index, digit = divmod(index, table.inputs)
            sequence.append(self._input_vectors[digit])
        sequence.reverse()
        return table.states[state_index], sequence

    def _build_counterexample(self, assertion: Assertion, state: State,
                              sequence: Sequence[Mapping[str, int]], span: int) -> Counterexample:
        prefix = self.state_space.path_from_reset(state)
        vectors = list(prefix) + [dict(vector) for vector in sequence]
        # Pad with idle cycles so the consequent cycle is part of the replayed
        # trace (needed when the consequent lies one cycle past the window).
        while len(vectors) < len(prefix) + span:
            vectors.append(dict(self._padding_vector))
        return Counterexample(
            input_vectors=tuple(vectors),
            window_start=len(prefix),
            assertion=assertion,
            initial_state=self.state_space.state_dict(state),
        )
