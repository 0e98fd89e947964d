"""Truth-table decisions against the solver: verdicts and witnesses.

A SAT-engine query whose support fits
:data:`repro.formal.bmc.TRUTH_TABLE_BITS` is decided by one bit-parallel
evaluation of its truth table instead of a solver context: an empty table
is UNSAT, and a from-reset window's lowest set lane is its canonical
witness.  Patching the threshold to 0 sends every non-constant query to
the solver, so the two configurations must report identical verdicts,
proof depths and counterexamples on every bundled design (over
``tools/witness_digests.py``'s corpus) and on generated FSMs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.designs import DESIGNS
from repro.formal import bmc
from repro.formal.checker import FormalVerifier
from repro.formal.induction import KInductionModelChecker

from generated_designs import fsms
# Sibling test modules (pytest puts this directory on sys.path).
from test_canonical_witness import corpus
from test_incremental_bmc import random_assertions

#: ``tools/witness_digests.py``'s search depth and induction depths.
BOUND = 10
DEPTHS = (0, 4)


def outcomes(module, assertions, depth, width, monkeypatch):
    """Every check's outcome with the table threshold at ``width``, plus
    the engine's reuse counters."""
    monkeypatch.setattr(bmc, "TRUTH_TABLE_BITS", width)
    checker = KInductionModelChecker(module, bound=BOUND, induction_k=depth)
    records = [(result.verdict, result.proof_strength,
                result.details.get("induction_k"), result.counterexample)
               for result in map(checker.check, assertions)]
    return records, checker.reuse_stats()


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_table_and_solver_agree_on_bundled_designs(name, depth, monkeypatch):
    module = DESIGNS[name].build()
    assertions = corpus(module)
    table, table_stats = outcomes(module, assertions, depth, 16, monkeypatch)
    solver, solver_stats = outcomes(module, assertions, depth, 0, monkeypatch)
    assert table == solver
    # The table decided some queries the solver path had to solve.
    assert table_stats["table_windows"] + table_stats["table_steps"] > 0
    assert table_stats["queries"] < solver_stats["queries"]


@settings(max_examples=25, deadline=None)
@given(module=fsms)
def test_table_and_solver_agree_on_generated_fsms(module):
    assertions = corpus(module, 12)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for depth in DEPTHS:
            table, _ = outcomes(module, assertions, depth, 16, monkeypatch)
            solver, _ = outcomes(module, assertions, depth, 0, monkeypatch)
            assert table == solver


def test_table_counters_reach_the_verifier_from_workers(arbiter2_module):
    """``table_windows``/``table_steps`` are plain ints: the pool's
    sum-merge carries each worker's into ``stats.reuse``, and the sums
    equal the serial engine's."""
    assertions = random_assertions(arbiter2_module, 10, seed=9)
    serial = FormalVerifier(arbiter2_module, engine="tiered", bound=6,
                            induction_k=4)
    serial.check_all(assertions)
    parallel = FormalVerifier(arbiter2_module, engine="tiered", bound=6,
                              induction_k=4, workers=2)
    try:
        parallel.check_all(assertions)
    finally:
        parallel.close()
    assert parallel.stats.reuse["formal_workers"] == 2
    for key in ("table_windows", "table_steps"):
        assert serial.stats.reuse[key] > 0
        assert parallel.stats.reuse[key] == serial.stats.reuse[key]
