"""Coverage bookkeeping of the incremental closure on generated FSMs.

``combined_input_space_coverage`` adds up the input-space fractions of an
output's proven assertions, which is only the measure of their union
when their antecedents are pairwise disjoint.  On random small FSMs
(:data:`generated_designs.fsms`), with the ``tiered`` engine and the
incremental trees, every iteration record must therefore show:

* pairwise disjoint proven antecedents for each output;
* per-output ``input_space_coverage`` that never decreases and equals the
  exact measure of the union of the antecedents, counted by brute force
  over every assignment of the bits they mention;
* ``cumulative_true_assertions`` and ``cumulative_test_cycles`` that
  never decrease.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.sim.stimulus import RandomStimulus

from generated_designs import fsms


def literal_bits(module, literal) -> dict[tuple[str, int, int], int]:
    """The (signal, cycle, bit) -> value constraints of one literal."""
    if literal.bit is not None:
        return {(literal.signal, literal.cycle, literal.bit): literal.value}
    return {(literal.signal, literal.cycle, bit): (literal.value >> bit) & 1
            for bit in range(module.width_of(literal.signal))}


def antecedent_bits(module, assertion) -> dict[tuple[str, int, int], int]:
    constraints: dict[tuple[str, int, int], int] = {}
    for literal in assertion.antecedent:
        constraints.update(literal_bits(module, literal))
    return constraints


def disjoint(first: dict, second: dict) -> bool:
    return any(second.get(key, value) != value for key, value in first.items())


def union_measure(cubes: list[dict]) -> Fraction:
    """Fraction of all assignments of the cubes' bits that satisfy one."""
    keys = sorted({key for cube in cubes for key in cube})
    hits = 0
    for values in itertools.product((0, 1), repeat=len(keys)):
        assignment = dict(zip(keys, values))
        if any(all(assignment[key] == value for key, value in cube.items())
               for cube in cubes):
            hits += 1
    return Fraction(hits, 2 ** len(keys))


@settings(max_examples=30, deadline=None)
@given(module=fsms, window=st.integers(1, 2), induction_k=st.sampled_from((0, 4)),
       seed_cycles=st.sampled_from((0, 6)), seed=st.integers(0, 10_000))
def test_incremental_closure_coverage_is_exact_and_monotone(
        module, window, induction_k, seed_cycles, seed):
    closure = CoverageClosure(module, config=GoldMineConfig(
        window=window, engine="tiered", induction_k=induction_k))
    stimulus = RandomStimulus(seed_cycles, seed=seed) if seed_cycles else None
    result = closure.run(stimulus)

    output_of = {assertion: output
                 for output, assertions in result.true_assertions.items()
                 for assertion in assertions}
    proven: dict[str, list[dict]] = {output: [] for output in result.true_assertions}
    previous_coverage: dict[str, float] = {}
    previous_record = None
    for record in result.iterations:
        for assertion in record.new_true_assertions:
            proven[output_of[assertion]].append(antecedent_bits(module, assertion))
        for output, cubes in proven.items():
            for first, second in itertools.combinations(cubes, 2):
                assert disjoint(first, second), (output, record.iteration)
            coverage = record.input_space_coverage.get(output, 0.0)
            assert coverage >= previous_coverage.get(output, 0.0)
            assert coverage == union_measure(cubes), (output, record.iteration)
            previous_coverage[output] = coverage
        if previous_record is not None:
            assert (record.cumulative_true_assertions
                    >= previous_record.cumulative_true_assertions)
            assert (record.cumulative_test_cycles
                    >= previous_record.cumulative_test_cycles)
        previous_record = record
    assert sum(map(len, proven.values())) == \
        result.iterations[-1].cumulative_true_assertions
