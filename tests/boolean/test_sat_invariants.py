"""Structural-invariant and intake-canonicalisation tests for the arena
solver.

The fuzz battery (``test_sat_fuzz.py``) runs thousands of solves on
:class:`checked_solver.CheckedSolver`, which calls
:meth:`~checked_solver.CheckedSolver.check_invariants` at every
conflict-free propagation fixpoint.  That is only evidence if the
checker can actually fail and is actually reached, so this module first
proves it non-vacuous by corrupting each structure it guards and
asserting it objects, and by counting the checks a search runs, then
exercises the paths with distinctive state transitions: VSIDS heap
membership across solves and activity rescales, persistent root-level
assignments across solves, and clause intake edge cases (duplicates,
tautologies, units, the empty clause) with and without assumptions.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.boolean import SatSolver
from repro.boolean.cnf import canonical_clause
from checked_solver import CheckedSolver


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
def solved_solver() -> CheckedSolver:
    """A solver mid-life: solved once, invariants known to hold."""
    rng = random.Random(42)
    solver = CheckedSolver(random_cnf(rng, 12, 30), 12)
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


def test_checker_detects_missing_heap_entry():
    solver = solved_solver()
    unassigned = next(v for v in range(1, 13) if solver._values[v << 1] == 0)
    solver._activity[unassigned] += 1.0  # re-key without a heap push
    with pytest.raises(AssertionError, match="no heap entry"):
        solver.check_invariants()


def test_checker_detects_heap_flag_without_entry():
    solver = CheckedSolver([(1,), (-1, 2, 3)], 3)
    assert solver.solve().satisfiable
    assert solver._values[1 << 1] == 1  # root-assigned, its entry popped
    solver._in_heap[1] = 1
    with pytest.raises(AssertionError, match="flagged in the heap"):
        solver.check_invariants()


def test_heap_holds_one_entry_per_variable_across_solves():
    """Conflict-free solves under varying assumptions never duplicate a
    heap entry: a variable unassigned on backtrack is pushed only when
    the heap lacks its current-activity entry.  The implication chain
    ``x1 -> x2 -> ... -> x12`` makes ``[xk, -xm]`` (k < m) fail by
    propagation alone, before any decision, and single-literal
    assumptions satisfiable."""
    nvars = 12
    solver = CheckedSolver([(-v, v + 1) for v in range(1, nvars)], nvars)
    rng = random.Random(7)
    for _ in range(60):
        low, high = sorted(rng.sample(range(1, nvars + 1), 2))
        assumptions = rng.choice([(low, -high), (low,), (-high,),
                                  (-low, high)])
        solver.solve(assumptions)
        assert solver.conflicts == 0
        assert len(solver._order) <= solver.variable_count
        solver.check_invariants()


def test_activity_rescale_rebuilds_the_heap():
    """The 1e100 activity rescale re-keys every entry: the heap is
    rebuilt from the unassigned variables, and search stays sound."""
    # Pigeonhole(5, 4) with every pigeon clause relaxed by selector 21:
    # UNSAT (after real search) under -21, satisfiable without it.
    clauses = [clause + (21,) if all(lit > 0 for lit in clause) else clause
               for clause in pigeonhole(5, 4)]
    solver = CheckedSolver(clauses, 21)
    solver._var_increment = 1e101  # the first bump overflows 1e100
    assert not solver.solve((-21,)).satisfiable
    assert solver._var_increment < 1e50  # rescaled
    result = solver.solve()
    assert result.satisfiable
    for clause in clauses:
        assert any(result.model.get(abs(lit), False) == (lit > 0)
                   for lit in clause)
    solver.check_invariants()
    assert len(solver._order) <= solver.variable_count


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
    solver = CheckedSolver()
    solver.add_clause((4, 4))
    result = solver.solve()
    assert result.satisfiable and result.model[4]
    assert not solver.solve((-4,)).satisfiable


def test_tautology_constrains_nothing():
    solver = CheckedSolver()
    solver.add_clause((1, -1))
    solver.add_clause((2, -2, 2))
    assert solver.clause_count == 0
    assert solver.solve((1, -2)).satisfiable
    assert solver.solve((-1, 2)).satisfiable


def test_empty_clause_is_unsat_under_any_assumptions():
    solver = CheckedSolver()
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
    solver = CheckedSolver([(1, 2)], 2)
    assert solver.solve((1, 1)).satisfiable
    assert not solver.solve((1, -1)).satisfiable
    assert solver.solve((2,)).satisfiable


def test_debug_hook_runs_during_search():
    """CheckedSolver runs check_invariants at every propagation fixpoint
    — a corrupted solver must fail *inside* solve()."""
    solver = CheckedSolver([(1, 2, 3), (-1, 2, 4), (1, -2, 4), (-3, -4, 2)], 4)
    assert solver.solve().satisfiable
    # Corrupt, then force a fresh search with contradicting assumptions.
    for watchlist in solver._watches:
        if watchlist:
            del watchlist[:2]
            break
    with pytest.raises(AssertionError):
        solver.solve((-2, -4))


def test_checked_solver_hooks_are_reached():
    """Each of CheckedSolver's overrides is reached by a real search: the
    fixpoint checks run, the learned clauses enter the proof, and the
    refutation verifies.  A solver refactor that
    bypasses a hook (say, propagation inlined into ``solve``) fails here,
    not silently."""
    clauses = pigeonhole(5, 4)
    before = dict(CheckedSolver.totals)
    solver = CheckedSolver(clauses, 20)
    assert not solver.solve().satisfiable
    assert solver.proof[-1] == () and len(solver.proof) > 1
    assert solver.verify_refutation(clauses) == len(solver.proof)
    after = CheckedSolver.totals
    assert after["fixpoint_checks"] > before["fixpoint_checks"]
    assert after["proofs_verified"] == before["proofs_verified"] + 1
    # The checks are the subclass's alone: the production solver has none.
    assert not hasattr(SatSolver(clauses, 20), "check_invariants")
