"""Tests for the persistent SAT solver and the incremental CNF context.

Covers the guarantees the incremental BMC engine leans on: mid-life
clause addition, assumption-based solving, phase saving, and the
hash-consing + persistent-encoder layer underneath.
"""

from __future__ import annotations

import itertools
import random
import weakref

from repro.boolean.cnf import CnfBuilder
from repro.boolean import expr as expr_module
from repro.boolean.expr import and_, not_, or_, var, xor_
from repro.boolean.incremental import IncrementalSolver
from repro.boolean.sat import SatSolver


def brute_force_satisfiable(clauses, variable_count):
    for bits in itertools.product([False, True], repeat=variable_count):
        if all(any((literal > 0) == bits[abs(literal) - 1] for literal in clause)
               for clause in clauses):
            return True
    return False


class TestPersistentSolver:
    def test_mid_life_clause_addition(self):
        solver = SatSolver([(1, 2), (-1, 3)])
        assert solver.solve().satisfiable
        solver.add_clause((-3,))
        solver.add_clause((-2,))
        assert not solver.solve().satisfiable

    def test_assumptions_do_not_stick(self):
        solver = SatSolver([(1, 2)])
        assert not solver.solve(assumptions=[-1, -2]).satisfiable
        assert solver.solve(assumptions=[-1]).satisfiable
        assert solver.solve().satisfiable

    def test_learned_unit_survives_across_solves(self):
        # (1) ∧ (-1 ∨ 2): propagation forces 2; adding (-2) later must flip
        # the verdict even though the first solve assigned everything.
        solver = SatSolver([(1,), (-1, 2)])
        assert solver.solve().satisfiable
        solver.add_clause((-2,))
        assert not solver.solve().satisfiable

    def test_incremental_differential_against_brute_force(self):
        rng = random.Random(99)
        for _ in range(40):
            variable_count = rng.randint(3, 7)
            solver = SatSolver(variable_count=variable_count)
            accumulated = []
            for _ in range(5):
                for _ in range(rng.randint(1, 5)):
                    clause = tuple(rng.choice([1, -1]) * rng.randint(1, variable_count)
                                   for _ in range(rng.randint(1, 3)))
                    accumulated.append(clause)
                    solver.add_clause(clause)
                expected = brute_force_satisfiable(accumulated, variable_count)
                assert solver.solve().satisfiable == expected
            assumptions = [rng.choice([1, -1]) * v
                           for v in rng.sample(range(1, variable_count + 1), k=2)]
            expected = brute_force_satisfiable(
                accumulated + [(lit,) for lit in assumptions], variable_count)
            assert solver.solve(assumptions=assumptions).satisfiable == expected

    def test_phase_saving_recorded(self):
        solver = SatSolver([(1, 2), (-1, 2), (1, -2)])
        result = solver.solve()
        assert result.satisfiable
        assert solver._saved_phase  # phases were recorded on unwind

    def test_empty_clause_is_unsat(self):
        solver = SatSolver([(1, 2)])
        solver.add_clause(())
        assert not solver.solve().satisfiable


class CountingTable(weakref.WeakValueDictionary):
    """An intern table that records every key stored into it."""

    def __init__(self, entries):
        super().__init__(entries)
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


class TestHashConsing:
    def test_structurally_equal_expressions_are_identical(self):
        first = and_(var("a"), or_(var("b"), not_(var("c"))))
        second = and_(var("a"), or_(var("b"), not_(var("c"))))
        assert first is second
        assert xor_(var("a"), var("b")) is xor_(var("a"), var("b"))
        assert len(expr_module._HASHCONS) > 0

    def test_constructors_intern_only_their_result(self, monkeypatch):
        """Without a complementary pair, ``and_``/``or_``/``xor_`` store
        exactly one node: the result (no negation built to test for one)."""
        a, b, x = var("intern_a"), var("intern_b"), var("intern_x")
        operands = (a, b, not_(x), xor_(a, x))
        for build in (and_, or_, lambda *ops: xor_(ops[0], ops[1])):
            table = CountingTable(expr_module._HASHCONS)
            monkeypatch.setattr(expr_module, "_HASHCONS", table)
            result = build(*operands)
            assert len(table.stored) == 1
            assert table[table.stored[0]] is result

    def test_persistent_builder_encodes_shared_nodes_once(self):
        builder = CnfBuilder()
        shared = and_(var("x"), var("y"))
        builder.encode(or_(shared, var("z")))
        clauses_before = len(builder.clauses)
        hits_before = builder.encode_cache_hits
        builder.encode(or_(shared, var("w")))
        assert builder.encode_cache_hits > hits_before
        # The shared AND contributed no new clauses the second time.
        assert len(builder.clauses) < 2 * clauses_before


class TestIncrementalSolverContext:
    def test_guarded_queries_are_independent(self):
        context = IncrementalSolver()
        x, y = var("x"), var("y")
        result, _ = context.solve_query(and_(x, not_(x)))
        assert not result.satisfiable
        result, literals = context.solve_query(and_(x, y))
        assert result.satisfiable
        assert literals == [context.builder.lookup("x"),
                            context.builder.lookup("y")]
        model = context.decode_model(result)
        assert model["x"] is True and model["y"] is True
        # An unsatisfiable query must not poison later ones.
        result, _ = context.solve_query(not_(y))
        assert result.satisfiable
        assert context.decode_model(result)["y"] is False
        result, _ = context.solve_query(x)
        assert result.satisfiable

    def test_permanent_assertions_constrain_queries(self):
        context = IncrementalSolver()
        x = var("x")
        context.assert_expr(not_(x))
        result, _ = context.solve_query(x)
        assert not result.satisfiable

    def test_counters_accumulate(self):
        context = IncrementalSolver()
        # or_ keeps the shared AND intact as a child (and_ would flatten
        # it away), so the encoder can hit its memo on the later queries.
        shared = and_(var("p"), var("q"))
        for extra in ("r", "s", "t"):
            result, _ = context.solve_query(or_(shared, var(extra)))
            assert result.satisfiable
        assert context.counters.queries == 3
        assert context.counters.encode_cache_hits >= 2
        assert context.counters.clauses_reused > 0
        payload = context.counters.to_json()
        assert payload["queries"] == 3
