"""Differential battery: the window-table explicit engine ≡ the loop reference.

:class:`~repro.formal.explicit.ExplicitModelChecker` answers every check
from a shared (state × input window) row table with big-int literal
masks; :class:`LoopExplicitModelChecker` (``explicit_reference.py``)
replays each row per assertion.  On every registered design the explicit
engine accepts, both check seeded random assertions (windows 1–3, bit
and multi-bit value literals, empty antecedents, register and
combinational consequents, literals on the padding cycle past the
window) and every candidate one short closure mines,
and must return the same verdict and the same counterexample, field by
field.  A second pass shrinks the block size and the retention budget so
the scans cross many blocks, split one state's sequences across blocks
and rebuild dropped blocks.
"""

from __future__ import annotations

import random

import pytest

from repro.assertions.assertion import Assertion, Literal
from repro.core.goldmine import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.designs import DESIGNS
from repro.formal import explicit
from repro.formal.explicit import ExplicitModelChecker
from repro.formal.result import FormalEngineError

# Sibling test module (pytest puts this directory on sys.path).
from explicit_reference import LoopExplicitModelChecker

#: Largest table (rows) a random assertion's window may need: the loop
#: reference replays every row of it per assertion.
ROW_CAP = 4_096
RANDOM_ASSERTIONS = 12


def _literal(module, rng: random.Random, name: str, cycle: int) -> Literal:
    width = module.width_of(name)
    if width == 1:
        return Literal(name, rng.randint(0, 1), cycle)
    if rng.random() < 0.5:
        return Literal(name, rng.randrange(1 << width), cycle)
    return Literal(name, rng.randint(0, 1), cycle, rng.randrange(width))


def random_assertions(module, checker, rng: random.Random, count: int
                      ) -> list[Assertion]:
    """Seeded assertions over windows whose table stays under ``ROW_CAP``."""
    states = len(checker.state_space.explore())
    inputs = len(checker.state_space.input_vectors)
    windows = [window for window in (1, 2, 3)
               if states * inputs ** window <= ROW_CAP] or [1]
    signals = module.data_input_names + module.state_names + module.output_names
    registers = set(module.state_names)
    assertions = []
    for _ in range(count):
        window = rng.choice(windows)
        output = rng.choice(module.output_names)
        # Registers are checked one cycle past the window, combinational
        # outputs inside it; now and then any literal sits on the padding
        # cycle past the window, whose inputs are the padding vector.
        padded = output in registers or rng.random() < 0.25
        cycle = window if padded else window - 1
        depth = rng.choice((0, 1, 2, 3))
        antecedent = tuple(_literal(module, rng, name, rng.randrange(cycle + 1))
                           for name in rng.sample(signals, k=min(depth, len(signals))))
        assertions.append(Assertion(antecedent, _literal(module, rng, output, cycle),
                                    window))
    return assertions


def mined_candidates(name: str) -> list[Assertion]:
    """Every candidate a two-iteration closure checks, in check order."""
    info = DESIGNS[name]
    closure = CoverageClosure(info.build(), outputs=list(info.mining_outputs) or None,
                              config=GoldMineConfig(window=info.window, max_iterations=2))
    result = closure.run(info.seed_vectors())
    return [assertion for record in result.iterations
            for assertion in record.new_true_assertions + record.failed_assertions]


def assert_same(table_result, loop_result) -> None:
    assert table_result.verdict is loop_result.verdict
    assert table_result.proof_strength == loop_result.proof_strength
    assert table_result.details["reachable_states"] == \
        loop_result.details["reachable_states"]
    table_cex, loop_cex = table_result.counterexample, loop_result.counterexample
    assert (table_cex is None) == (loop_cex is None)
    if table_cex is not None:
        assert table_cex.input_vectors == loop_cex.input_vectors
        assert [list(vector) for vector in table_cex.input_vectors] == \
            [list(vector) for vector in loop_cex.input_vectors]
        assert table_cex.window_start == loop_cex.window_start
        assert table_cex.initial_state == loop_cex.initial_state


def accepted_designs() -> list[str]:
    names = []
    for name, info in sorted(DESIGNS.items()):
        try:
            ExplicitModelChecker(info.build()).state_space.explore()
        except FormalEngineError:
            continue
        names.append(name)
    return names


ACCEPTED = accepted_designs()


def first_violating_row(checker, result) -> int:
    """Table row of a counterexample's window: (state, sequence) in loop order."""
    space = checker.state_space
    counterexample = result.counterexample
    state = tuple(counterexample.initial_state[name] for name in space.register_names)
    vectors = space.input_vectors
    window = max(result.assertion.window, 1)
    start = counterexample.window_start
    row = space.explore().index(state)
    for vector in counterexample.input_vectors[start:start + window]:
        row = row * len(vectors) + vectors.index(vector)
    return row


class TestWindowTableMatchesLoop:
    def test_corpus_covers_every_registered_design(self):
        assert ACCEPTED == sorted(DESIGNS)

    @pytest.mark.parametrize("name", ACCEPTED)
    def test_random_and_mined_assertions(self, name):
        module = DESIGNS[name].build()
        table, loop = ExplicitModelChecker(module), LoopExplicitModelChecker(module)
        corpus = random_assertions(module, table, random.Random(name), RANDOM_ASSERTIONS)
        corpus += mined_candidates(name)
        verdicts = set()
        for assertion in corpus:
            table_result = table.check(assertion)
            assert_same(table_result, loop.check(assertion))
            verdicts.add(table_result.verdict)
        assert len(verdicts) == 2, "corpus should hold both TRUE and FALSE verdicts"

    def test_empty_antecedent_and_value_literals(self, counter_module):
        registers = set(counter_module.state_names)
        wide = next(name for name in counter_module.state_names
                    if counter_module.width_of(name) > 1)
        table = ExplicitModelChecker(counter_module)
        loop = LoopExplicitModelChecker(counter_module)
        for value in range(1 << counter_module.width_of(wide)):
            for output in counter_module.output_names:
                cycle = 1 if output in registers else 0
                for consequent in (Literal(output, 0, cycle), Literal(output, 1, cycle)):
                    for antecedent in ((), (Literal(wide, value, 0),)):
                        assertion = Assertion(antecedent, consequent, 1)
                        assert_same(table.check(assertion), loop.check(assertion))

    def test_consequent_before_window_end(self, arbiter2_module):
        # span 1 < window 2: every row still enumerates both window inputs.
        table = ExplicitModelChecker(arbiter2_module)
        loop = LoopExplicitModelChecker(arbiter2_module)
        for value in (0, 1):
            for antecedent in ((), (Literal("req0", 1, 0),)):
                assertion = Assertion(antecedent, Literal("gnt0", value, 0), 2)
                assert assertion.span < assertion.window
                assert_same(table.check(assertion), loop.check(assertion))

    def test_pinned_inputs(self, wb_module):
        pins = {"mem_valid": 1}
        table = ExplicitModelChecker(wb_module, pinned_inputs=pins)
        loop = LoopExplicitModelChecker(wb_module, pinned_inputs=pins)
        corpus = random_assertions(wb_module, table, random.Random(3), 2 * RANDOM_ASSERTIONS)
        corpus.append(Assertion((), Literal("wb_valid", 0, 1), 1))
        for assertion in corpus:
            table_result = table.check(assertion)
            assert_same(table_result, loop.check(assertion))
            if table_result.counterexample is not None:
                assert all(vector["mem_valid"] == 1
                           for vector in table_result.counterexample.input_vectors)


class TestSmallBlocks:
    """Block size 5 and a 12-row budget: many blocks, split states, drops."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(explicit, "BLOCK_ROWS", 5)
        monkeypatch.setattr(explicit, "RETAINED_ROWS", 12)

    @pytest.mark.parametrize("name", ["arbiter2", "b01", "counter_block", "b12"])
    def test_random_and_mined_assertions(self, name):
        module = DESIGNS[name].build()
        table, loop = ExplicitModelChecker(module), LoopExplicitModelChecker(module)
        corpus = random_assertions(module, table, random.Random(name), RANDOM_ASSERTIONS)
        corpus += mined_candidates(name)
        for assertion in corpus:
            assert_same(table.check(assertion), loop.check(assertion))
        assert table.reuse_stats()["explicit_blocks"] > len(table._tables)

    def test_scan_stops_at_first_violating_block(self, arbiter2_module):
        # Window 3 on the arbiter: 64 sequences per state, so every state's
        # rows span several 5-row blocks.
        refuted = 0
        for assertion in random_assertions(arbiter2_module,
                                           ExplicitModelChecker(arbiter2_module),
                                           random.Random(5), 40):
            checker = ExplicitModelChecker(arbiter2_module)
            result = checker.check(assertion)
            if not result.is_false:
                continue
            refuted += 1
            row = first_violating_row(checker, result)
            stats = checker.reuse_stats()
            assert stats["explicit_blocks"] == row // explicit.BLOCK_ROWS + 1
            assert stats["explicit_rows"] == min(
                (row // explicit.BLOCK_ROWS + 1) * explicit.BLOCK_ROWS,
                checker._tables[(assertion.window, assertion.span)].rows,
            )
        assert refuted >= 10

    def test_dropped_blocks_are_rebuilt(self, arbiter2_module):
        assertion = Assertion((Literal("req0", 0, 0), Literal("req0", 1, 1)),
                              Literal("gnt0", 1, 2), 2)
        checker = ExplicitModelChecker(arbiter2_module)
        loop = LoopExplicitModelChecker(arbiter2_module)
        first = checker.check(assertion)
        assert first.is_true
        rows = checker._tables[(2, 3)].rows
        kept = sum(block.rows for block in checker._tables[(2, 3)].blocks)
        assert explicit.RETAINED_ROWS <= kept < rows
        assert checker.reuse_stats()["explicit_rows"] == rows
        assert_same(checker.check(assertion), loop.check(assertion))
        assert checker.reuse_stats()["explicit_rows"] == 2 * rows - kept


class TestLimitsAndCounters:
    def test_input_combination_limit_raises(self, wb_module):
        with pytest.raises(FormalEngineError):
            ExplicitModelChecker(wb_module, max_input_combinations=4)

    def test_state_limit_raises(self, b01_module):
        checker = ExplicitModelChecker(b01_module, max_states=3)
        assertion = Assertion((), Literal(b01_module.output_names[0], 0, 1), 1)
        with pytest.raises(FormalEngineError):
            checker.check(assertion)

    def test_masks_are_memoised_per_literal(self, arbiter2_module):
        checker = ExplicitModelChecker(arbiter2_module)
        assertion = Assertion((Literal("req0", 0, 0), Literal("req0", 0, 1)),
                              Literal("gnt0", 0, 2), 2)
        checker.check(assertion)
        before = checker.reuse_stats()
        checker.check(assertion)
        assert checker.reuse_stats() == before == {
            "explicit_rows": 48, "explicit_blocks": 1, "explicit_masks": 3,
            "explicit_transitions": 12, "explicit_levels": 2}

    def test_identical_closures_report_identical_counters(self):
        info = DESIGNS["counter_block"]

        def run():
            closure = CoverageClosure(info.build(), outputs=list(info.mining_outputs),
                                      config=GoldMineConfig(window=info.window))
            return closure.run(info.seed_vectors())

        first, second = run(), run()
        counters = {key: value for key, value in first.formal_reuse.items()
                    if key.startswith("explicit_")}
        assert set(counters) == {"explicit_rows", "explicit_blocks", "explicit_masks",
                                 "explicit_transitions", "explicit_levels"}
        assert all(value > 0 for value in counters.values())
        assert first.formal_reuse == second.formal_reuse
        assert "formal_reuse" not in first.deterministic_json()
