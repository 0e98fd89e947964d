"""Canonical counterexamples: the truth-table witness and the shared unrolling.

A refuted check reports the lexicographically least violating input
sequence (cycle-major, input declaration order, bit 0 first, 0 < 1).
The engine settles the last :data:`repro.formal.bmc.TRUTH_TABLE_BITS`
free bits with one lane-parallel evaluation and any bits before them
with solver-backed greedy steps.  These tests pin the result against a
brute-force search by simulation and against the all-solver and
small-table configurations, and check that every checker of a module
shares one IR and one unrolling per slice without changing a verdict or
witness.
"""

from __future__ import annotations

import importlib.util
import itertools
import pickle
from pathlib import Path

import pytest

from repro.assertions.assertion import Verdict
from repro.boolean.expr import BoolExpr
from repro.designs import DESIGNS
from repro.designs.arbiters import ARBITER2_SOURCE
from repro.formal import bmc
from repro.formal.bmc import BmcModelChecker, _lane_patterns
from repro.formal.induction import KInductionModelChecker
from repro.formal.result import Counterexample
from repro.hdl.parser import Parser

# Sibling test module (pytest puts this directory on sys.path).
from test_incremental_bmc import random_assertions, replay_violates


def load_witness_digests():
    """``tools/witness_digests.py``, whose seeded corpus the tests reuse."""
    path = Path(__file__).resolve().parents[2] / "tools" / "witness_digests.py"
    spec = importlib.util.spec_from_file_location("witness_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Windows 1-3; bit-level and whole-signal literals of any width.
corpus = load_witness_digests().corpus


def results(checker, assertions):
    """Verdict and canonical counterexample of each check."""
    return [(result.verdict, result.counterexample)
            for result in map(checker.check, assertions)]


def free_bit_counts(monkeypatch):
    """Spy recording how many free input bits each canonical witness had."""
    counts = []
    canonical = BmcModelChecker._canonical_model

    def spy(self, *args):
        model = canonical(self, *args)
        counts.append(len(model))
        return model

    monkeypatch.setattr(BmcModelChecker, "_canonical_model", spy)
    return counts


# ----------------------------------------------------------------------
def test_lane_patterns_enumerate_assignments_in_lexicographic_order():
    for width in range(6):
        columns = _lane_patterns(width)
        assert len(columns) == width
        for lane, bits in enumerate(itertools.product((0, 1), repeat=width)):
            assert tuple((column >> lane) & 1 for column in columns) == bits


def lexicographic_minimum(module, assertion, window_start):
    """The least violating input sequence at ``window_start``, found by
    simulating sequences in lexicographic order."""
    inputs = module.data_input_names
    cycles = window_start + assertion.consequent.cycle + 1
    layout = [(cycle, name, bit) for cycle in range(cycles) for name in inputs
              for bit in range(module.width_of(name))]
    for bits in itertools.product((0, 1), repeat=len(layout)):
        vectors = [{name: 0 for name in inputs} for _ in range(cycles)]
        for (cycle, name, bit), value in zip(layout, bits):
            vectors[cycle][name] |= value << bit
        for vector in vectors:
            if module.reset is not None:
                vector[module.reset] = 0
        candidate = Counterexample(tuple(vectors), window_start, assertion)
        if replay_violates(module, assertion, candidate):
            return tuple(vectors)
    return None


@pytest.mark.parametrize("name", ["arbiter2", "b01"])
def test_witness_is_brute_force_lexicographic_minimum(name):
    module = DESIGNS[name].build()
    checker = BmcModelChecker(module, bound=3)
    compared = 0
    for assertion in random_assertions(module, 16, seed=5):
        result = checker.check(assertion)
        if result.counterexample is None:
            continue
        counterexample = result.counterexample
        assert counterexample.input_vectors == lexicographic_minimum(
            module, assertion, counterexample.window_start), assertion.describe()
        compared += 1
    assert compared >= 4


@pytest.mark.parametrize("name", ["arbiter2", "b01", "b12"])
def test_table_width_does_not_change_witnesses(name, monkeypatch):
    """All-solver (0 table bits) and a 3-bit table give the default's
    witnesses; on b12 the default itself takes the solver prefix."""
    module = DESIGNS[name].build()
    assertions = corpus(module, 24, seed=7)
    counts = free_bit_counts(monkeypatch)
    default = results(BmcModelChecker(module), assertions)
    assert sum(verdict is Verdict.FALSE for verdict, _ in default) >= 6
    if name == "b12":
        assert max(counts) > bmc.TRUTH_TABLE_BITS
    for width in (0, 3):
        monkeypatch.setattr(bmc, "TRUTH_TABLE_BITS", width)
        assert results(BmcModelChecker(module), assertions) == default


def test_empty_truth_table_raises(monkeypatch):
    """A table with no satisfying lane is an engine fault, never a witness."""
    module = DESIGNS["arbiter2"].build()
    assertion = next(assertion for assertion in random_assertions(module, 16, seed=5)
                     if BmcModelChecker(module).check(assertion).verdict is Verdict.FALSE)
    monkeypatch.setattr(BoolExpr, "evaluate_lanes", lambda self, lanes, mask: 0)
    with pytest.raises(RuntimeError, match="canonical witness"):
        BmcModelChecker(module).check(assertion)


# ----------------------------------------------------------------------
def cold_arbiter2():
    [module] = Parser(ARBITER2_SOURCE).parse_modules()
    return module


def test_checkers_share_each_slice_unroller():
    module = cold_arbiter2()
    assertions = corpus(module, 16, seed=3)
    first = BmcModelChecker(module)
    second = KInductionModelChecker(module, induction_k=4)
    first_results = results(first, assertions)
    second_results = results(second, assertions)
    assert first._unrollers
    for key, unroller in first._unrollers.items():
        assert second._unrollers[key] is unroller
        assert module.derived(("unroller", key), object) is unroller
    # Verdicts and witnesses equal those of checkers on a cold parse.
    assert first_results == results(BmcModelChecker(cold_arbiter2()), assertions)
    assert second_results == results(
        KInductionModelChecker(cold_arbiter2(), induction_k=4), assertions)


def test_mutation_and_pickling_drop_the_shared_unrolling():
    module = cold_arbiter2()
    checker = BmcModelChecker(module)
    checker.check(corpus(module, 1, seed=3)[0])
    [key] = checker._unrollers
    restored = pickle.loads(pickle.dumps(module))
    fresh = object()
    assert restored.derived(("unroller", key), lambda: fresh) is fresh
    module.add_signal("spare")
    assert module.derived(("unroller", key), lambda: fresh) is fresh


def test_checkers_share_one_optimized_design():
    module = cold_arbiter2()
    assertions = corpus(module, 16, seed=3)
    first = BmcModelChecker(module)
    second = KInductionModelChecker(module, induction_k=4)
    assert second._opt is first._opt
    assert module.derived("ir", object) is first._opt
    first_results = results(first, assertions)
    second_results = results(second, assertions)
    # The slice memo filled by the first checker serves the second.
    assert first._opt._slice_memo
    assert set(second._unrollers) <= set(first._opt._slice_memo.values())
    assert first_results == results(BmcModelChecker(cold_arbiter2()), assertions)
    assert second_results == results(
        KInductionModelChecker(cold_arbiter2(), induction_k=4), assertions)


def test_mutation_and_pickling_drop_the_shared_ir():
    module = cold_arbiter2()
    shared = BmcModelChecker(module)._opt
    restored = pickle.loads(pickle.dumps(module))
    assert BmcModelChecker(restored)._opt is not shared
    module.add_signal("spare")
    assert BmcModelChecker(module)._opt is not shared
