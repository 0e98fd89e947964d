"""Structural-invariant and intake-canonicalisation tests for the arena
solver.

The fuzz battery (:mod:`tests.boolean.test_sat_fuzz`) runs thousands of
solves with ``debug_checks=True``, which calls
:meth:`~repro.boolean.sat.SatSolver.check_invariants` at every
conflict-free propagation fixpoint.  That is only evidence if the
checker can actually fail, so this module first proves it non-vacuous by
corrupting each structure it guards and asserting it objects, then
exercises the paths with distinctive state transitions: learned-DB
reduction with in-place arena compaction, persistent root-level
assignments across solves, and clause intake edge cases (duplicates,
tautologies, units, the empty clause) with and without assumptions.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.boolean import SatSolver, check_rup_proof
from repro.boolean.cnf import canonical_clause


def pigeonhole(pigeons: int, holes: int) -> list[tuple[int, ...]]:
    def var(pigeon, hole):
        return pigeon * holes + hole + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            clauses.append((-var(p1, h), -var(p2, h)))
    return clauses


def random_cnf(rng, nvars, nclauses):
    return [tuple(rng.randint(1, nvars) * rng.choice((1, -1))
                  for _ in range(rng.choice((2, 3, 3))))
            for _ in range(nclauses)]


# ---------------------------------------------------------------------------
# the checker is not vacuous: corrupt each structure, expect an objection
# ---------------------------------------------------------------------------
def solved_solver() -> SatSolver:
    """A solver mid-life: solved once, invariants known to hold."""
    rng = random.Random(42)
    solver = SatSolver(random_cnf(rng, 12, 30), 12)
    solver.solve()
    solver.check_invariants()  # sanity: holds before we break anything
    return solver


def test_checker_detects_arena_header_hole():
    solver = solved_solver()
    solver._c_offset[1] += 1  # introduce a hole between clauses 0 and 1
    with pytest.raises(AssertionError, match="hole|cover"):
        solver.check_invariants()


def test_checker_detects_dangling_watch_entry():
    solver = solved_solver()
    # Retarget some watch entry at a clause that does not watch it.
    for code, watchlist in enumerate(solver._watches):
        if watchlist:
            watchlist[0] = (watchlist[0] + 1) % solver.clause_count
            break
    with pytest.raises(AssertionError):
        solver.check_invariants()


def test_checker_detects_lost_watcher():
    solver = solved_solver()
    for watchlist in solver._watches:
        if watchlist:
            del watchlist[:2]  # clause now has one watcher instead of two
            break
    with pytest.raises(AssertionError):
        solver.check_invariants()


def test_checker_detects_binary_entry_mismatch():
    solver = solved_solver()
    for binlist in solver._bin_watches:
        if binlist:
            binlist[0] ^= 1  # negate the cached other-literal
            break
        else:
            continue
        break
    else:
        pytest.skip("formula produced no binary clauses")
    with pytest.raises(AssertionError):
        solver.check_invariants()


def test_checker_detects_false_trail_literal():
    solver = solved_solver()
    if not solver._trail:
        pytest.skip("no root-level assignments to corrupt")
    code = solver._trail[0]
    solver._values[code] = -1
    solver._values[code ^ 1] = 1
    with pytest.raises(AssertionError, match="not true"):
        solver.check_invariants()


# ---------------------------------------------------------------------------
# learned-DB reduction / arena compaction
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("max_learned", [8, 16, 64])
def test_compaction_preserves_invariants_and_verdicts(max_learned):
    """A tiny learned-clause budget forces repeated in-place compactions;
    headers must stay dense and every verdict must stay right through
    every reduction: SAT models satisfy the database and the
    assumptions, UNSAT verdicts carry a RUP-checked refutation."""
    rng = random.Random(max_learned)
    arena = SatSolver(max_learned=max_learned, debug_checks=True)
    so_far: list[tuple[int, ...]] = []
    for _ in range(4):
        for clause in random_cnf(rng, 16, 25):
            arena.add_clause(clause)
            so_far.append(clause)
        assumptions = tuple(v * rng.choice((1, -1))
                            for v in rng.sample(range(1, 17), 3))
        result = arena.solve(assumptions)
        if result.satisfiable:
            model = dict(result.model)
            for clause in so_far + [(lit,) for lit in assumptions]:
                assert any(model.get(abs(lit), False) == (lit > 0)
                           for lit in clause)
        else:
            problem = so_far + [(lit,) for lit in assumptions]
            certifier = SatSolver(problem, certify=True)
            assert not certifier.solve().satisfiable
            check_rup_proof(problem, certifier.proof, expect_refutation=True)
        arena.check_invariants()


def test_reduction_actually_drops_clauses():
    clauses = pigeonhole(7, 6)
    solver = SatSolver(clauses, 42, max_learned=32, debug_checks=True)
    result = solver.solve()
    assert not result.satisfiable
    assert solver.db_reductions > 0, "php(7,6) must overflow a 32-clause cap"
    assert solver.learned_dropped > 0
    # Compaction left a dense arena: headers exactly cover the buffer.
    solver.check_invariants()
    assert solver.arena_size == sum(solver._c_size)


# ---------------------------------------------------------------------------
# persistent root level
# ---------------------------------------------------------------------------
def test_root_assignments_persist_across_solves():
    """The second solve of an unchanged database re-propagates nothing:
    root-level implications survive in the trail and the queue head."""
    solver = SatSolver([(1,), (-1, 2), (-2, 3)], 3)
    first = solver.solve()
    assert first.satisfiable
    assert first.model[1] and first.model[2] and first.model[3]
    second = solver.solve()
    assert second.satisfiable
    # The root implications (1 -> 2 -> 3) were not re-derived: the queue
    # head stayed parked past the already-propagated root prefix, and
    # with every variable root-assigned there is nothing left to decide.
    assert second.stats["propagations"] == 0
    assert second.stats["watch_checks"] == 0
    assert second.stats["decisions"] == 0
    assert second.model[1] and second.model[2] and second.model[3]


def test_new_clauses_propagate_against_persistent_roots():
    solver = SatSolver([(1,), (-1, 2)], 3)
    assert solver.solve().satisfiable
    solver.add_clause((-2, 3))       # unit against the persistent roots
    result = solver.solve()
    assert result.satisfiable and result.model[3]
    solver.add_clause((-3,))         # contradicts them: permanently UNSAT
    assert not solver.solve().satisfiable
    assert not solver.solve((3,)).satisfiable


def test_root_conflict_retires_the_solver():
    """Assumption-free UNSAT latches: the database only ever grows, so
    later solves (any assumptions, more clauses) stay UNSAT and cheap."""
    solver = SatSolver(pigeonhole(4, 3), 12)
    assert not solver.solve().satisfiable
    conflicts_after = solver.conflicts
    solver.add_clause((13, 14))
    assert not solver.solve().satisfiable
    assert not solver.solve((13,)).satisfiable
    assert solver.conflicts == conflicts_after, "retired solver searched"


def test_assumption_unsat_does_not_retire_the_solver():
    solver = SatSolver([(1, 2), (-3,)], 3)
    assert not solver.solve((3,)).satisfiable
    assert solver.solve().satisfiable
    assert solver.solve((-3, 1)).satisfiable


# ---------------------------------------------------------------------------
# intake canonicalisation
# ---------------------------------------------------------------------------
def test_canonical_clause_table():
    assert canonical_clause((3, 3)) == (3,)
    assert canonical_clause((3, -3)) is None
    assert canonical_clause((1, 2, 1)) == (1, 2)
    assert canonical_clause((1, 2, -1)) is None
    assert canonical_clause((2, 2, 2)) == (2,)
    assert canonical_clause((1, 2, 3, 2, 1)) == (1, 2, 3)
    assert canonical_clause((1, 2, 3, -2)) is None
    assert canonical_clause(()) == ()
    assert canonical_clause((5,)) == (5,)
    for bad in ((0,), (1, 0), (1, 2, 0), (1, 2, 3, 0)):
        with pytest.raises(ValueError):
            canonical_clause(bad)


def test_duplicate_literal_clause_becomes_unit():
    solver = SatSolver(debug_checks=True)
    solver.add_clause((4, 4))
    result = solver.solve()
    assert result.satisfiable and result.model[4]
    assert not solver.solve((-4,)).satisfiable


def test_tautology_constrains_nothing():
    solver = SatSolver(debug_checks=True)
    solver.add_clause((1, -1))
    solver.add_clause((2, -2, 2))
    assert solver.clause_count == 0
    assert solver.solve((1, -2)).satisfiable
    assert solver.solve((-1, 2)).satisfiable


def test_empty_clause_is_unsat_under_any_assumptions():
    solver = SatSolver(debug_checks=True)
    solver.add_clause((1, 2))
    solver.add_clause(())
    assert not solver.solve().satisfiable
    assert not solver.solve((1,)).satisfiable


def test_zero_literal_rejected_everywhere():
    solver = SatSolver()
    with pytest.raises(ValueError):
        solver.add_clause((1, 0))
    with pytest.raises(ValueError):
        solver.solve((0,))


def test_duplicate_assumptions_and_root_contradiction():
    solver = SatSolver([(1, 2)], 2, debug_checks=True)
    assert solver.solve((1, 1)).satisfiable
    assert not solver.solve((1, -1)).satisfiable
    assert solver.solve((2,)).satisfiable


def test_debug_hook_runs_during_search():
    """debug_checks wires check_invariants into every propagation
    fixpoint — a corrupted solver must fail *inside* solve()."""
    solver = SatSolver([(1, 2, 3), (-1, 2, 4), (1, -2, 4), (-3, -4, 2)], 4,
                       debug_checks=True)
    assert solver.solve().satisfiable
    # Corrupt, then force a fresh search with contradicting assumptions.
    for watchlist in solver._watches:
        if watchlist:
            del watchlist[:2]
            break
    with pytest.raises(AssertionError):
        solver.solve((-2, -4))
