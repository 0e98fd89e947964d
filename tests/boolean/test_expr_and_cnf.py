"""Tests for Boolean expressions, Tseitin encoding and the SAT solver."""

from __future__ import annotations

import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.cnf import CnfBuilder
from repro.boolean.expr import (
    FALSE,
    TRUE,
    BAnd,
    BConst,
    BIte,
    BNot,
    BOr,
    BVar,
    BXor,
    and_,
    iff,
    implies,
    ite,
    not_,
    or_,
    support_of,
    var,
    xor_,
)
from repro.boolean.sat import SatSolver, solve_clauses, solve_expr


class TestSimplifyingConstructors:
    def test_constant_folding_and(self):
        assert and_(TRUE, var("a")) == var("a")
        assert and_(FALSE, var("a")) == FALSE

    def test_constant_folding_or(self):
        assert or_(FALSE, var("a")) == var("a")
        assert or_(TRUE, var("a")) == TRUE

    def test_double_negation(self):
        assert not_(not_(var("a"))) == var("a")

    def test_complementary_terms(self):
        assert and_(var("a"), not_(var("a"))) == FALSE
        assert or_(var("a"), not_(var("a"))) == TRUE

    def test_duplicate_removal(self):
        assert and_(var("a"), var("a")) == var("a")

    def test_xor_simplifications(self):
        assert xor_(var("a"), var("a")) == FALSE
        assert xor_(var("a"), FALSE) == var("a")
        assert xor_(var("a"), TRUE) == not_(var("a"))

    def test_ite_constant_condition(self):
        assert ite(TRUE, var("a"), var("b")) == var("a")
        assert ite(FALSE, var("a"), var("b")) == var("b")

    def test_ite_equal_branches(self):
        assert ite(var("c"), var("a"), var("a")) == var("a")

    def test_implies_and_iff_semantics(self):
        assign = {"a": True, "b": False}
        assert implies(var("a"), var("b")).evaluate(assign) is False
        assert implies(var("b"), var("a")).evaluate(assign) is True
        assert iff(var("a"), var("a")).evaluate(assign) is True

    def test_support(self):
        expr = and_(var("a"), or_(var("b"), not_(var("c"))))
        assert expr.support() == {"a", "b", "c"}

    def test_operator_overloads(self):
        expr = (var("a") & var("b")) | ~var("c")
        assert expr.evaluate({"a": True, "b": True, "c": True}) is True
        assert expr.evaluate({"a": False, "b": True, "c": True}) is False


def recursive_support(expr, memo=None):
    """Reference support: plain recursion over ``children()``, memoised."""
    memo = {} if memo is None else memo
    if expr not in memo:
        names = {expr.name} if hasattr(expr, "name") else set()
        for child in expr.children():
            names |= recursive_support(child, memo)
        memo[expr] = names
    return memo[expr]


def random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([TRUE, FALSE] + [var(f"v{i}") for i in range(6)])
    kind = rng.randrange(5)
    if kind == 0:
        return not_(random_expr(rng, depth - 1))
    if kind == 1:
        return and_(*(random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if kind == 2:
        return or_(*(random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if kind == 3:
        return xor_(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    return ite(*(random_expr(rng, depth - 1) for _ in range(3)))


class TestSupportOf:
    def test_matches_recursive_reference(self):
        rng = random.Random(7)
        for _ in range(200):
            expr = random_expr(rng, 5)
            assert support_of(expr) == recursive_support(expr)

    def test_constants_have_empty_support(self):
        assert support_of(TRUE) == frozenset() == support_of(FALSE)

    def test_support_method_is_support_of(self):
        expr = ite(var("s"), xor_(var("a"), var("b")), not_(var("c")))
        assert isinstance(expr.support(), frozenset)
        assert expr.support() == support_of(expr) == {"s", "a", "b", "c"}

    def test_chain_deeper_than_recursion_limit(self):
        expr = var("v0")
        depth = sys.getrecursionlimit() + 100
        for index in range(1, depth):
            expr = xor_(expr, var(f"v{index}"))
        assert support_of(expr) == {f"v{index}" for index in range(depth)}

    def test_shared_dag_walks_each_node_once(self):
        """Each level reads the previous one twice: 2**80 paths, 2 nodes per level."""
        expr = var("v0")
        for index in range(1, 80):
            expr = xor_(expr, and_(expr, var(f"v{index}")))
        memo = {}
        assert support_of(expr, memo) == {f"v{index}" for index in range(80)}
        distinct, stack = {expr}, [expr]
        while stack:
            for child in stack.pop().children():
                if child not in distinct:
                    distinct.add(child)
                    stack.append(child)
        assert set(memo) == distinct

    def test_memo_is_reused_across_calls(self):
        shared = and_(var("a"), var("b"))
        memo = {}
        first = support_of(shared, memo)
        assert support_of(or_(shared, var("c")), memo) == {"a", "b", "c"}
        assert memo[shared] is first



def reference_value(expr, assignment):
    """Reference semantics: plain structural recursion, one node type at a
    time (small expressions only)."""
    if isinstance(expr, BConst):
        return expr.value
    if isinstance(expr, BVar):
        return assignment[expr.name]
    values = [reference_value(child, assignment) for child in expr.children()]
    if isinstance(expr, BNot):
        return not values[0]
    if isinstance(expr, BAnd):
        return all(values)
    if isinstance(expr, BOr):
        return any(values)
    if isinstance(expr, BXor):
        return values[0] != values[1]
    assert isinstance(expr, BIte)
    return values[1] if values[0] else values[2]


@st.composite
def small_dags(draw):
    """A random DAG over four variables: every node built joins the pool
    its successors draw operands from, so subexpressions are shared."""
    pool = [TRUE, FALSE] + [var(f"d{index}") for index in range(4)]
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("not", "and", "or", "xor", "ite")))
        pick = st.sampled_from(list(pool))
        if kind == "not":
            node = not_(draw(pick))
        elif kind in ("and", "or"):
            operands = draw(st.lists(pick, min_size=2, max_size=4))
            node = (and_ if kind == "and" else or_)(*operands)
        elif kind == "xor":
            node = xor_(draw(pick), draw(pick))
        else:
            node = ite(draw(pick), draw(pick), draw(pick))
        pool.append(node)
    return pool[-1]


class TestEvaluate:
    @settings(max_examples=200, deadline=None)
    @given(small_dags())
    def test_matches_brute_force_truth_table(self, expr):
        names = sorted(support_of(expr))
        for bits in itertools.product([False, True], repeat=len(names)):
            assignment = dict(zip(names, bits))
            assert expr.evaluate(assignment) is reference_value(expr, assignment)

    @settings(max_examples=200, deadline=None)
    @given(small_dags(), st.integers(1, 80), st.integers(0, 2**32 - 1))
    def test_lanes_match_evaluate_lane_by_lane(self, expr, count, seed):
        """Bit ``i`` of ``evaluate_lanes`` is the value on lane ``i``'s
        assignment; a variable left out of the lanes reads 0 in all."""
        rng = random.Random(seed)
        mask = (1 << count) - 1
        lanes = {f"d{index}": rng.getrandbits(count)
                 for index in range(4) if rng.random() < 0.75}
        table = expr.evaluate_lanes(lanes, mask)
        assert 0 <= table <= mask
        for lane in range(count):
            assignment = {f"d{index}": bool((lanes.get(f"d{index}", 0) >> lane) & 1)
                          for index in range(4)}
            value = bool((table >> lane) & 1)
            assert value is expr.evaluate(assignment)
            assert value is reference_value(expr, assignment)

    def test_absent_variable_reads_false(self):
        expr = or_(var("a"), and_(var("b"), not_(var("c"))))
        assert expr.evaluate({}) is False
        assert expr.evaluate({"b": True}) is True
        assert var("a").evaluate({}) is False
        assert not_(var("a")).evaluate({"other": True}) is True

    def test_dag_deeper_than_recursion_limit(self):
        expr = var("v0")
        for index in range(1, 10_000):
            expr = xor_(expr, var(f"v{index}"))
        assert expr.evaluate({f"v{index}": True for index in range(10_000)}) is False
        assert expr.evaluate({"v9999": True}) is True

    def test_shared_ite_ladder_is_linear(self):
        """Each level reads the level below as the condition and again in
        a branch: 2**40 paths through 40 levels of shared nodes.  Each of
        the 81 variable nodes is read once per evaluation; a walk that
        revisits shared nodes exceeds that budget and fails at once."""
        expr = var("x")
        for level in range(40):
            expr = ite(expr, xor_(expr, var(f"a{level}")), or_(expr, var(f"b{level}")))
        assert len(support_of(expr)) == 81
        rng = random.Random(40)
        for _ in range(20):
            assignment = ReadBudget(81)
            assignment["x"] = expected = rng.random() < 0.5
            for level in range(40):
                a, b = rng.random() < 0.5, rng.random() < 0.5
                assignment[f"a{level}"], assignment[f"b{level}"] = a, b
                expected = (not a) if expected else b
            assert expr.evaluate(assignment) is expected
            assert assignment.reads == 81


class ReadBudget(dict):
    """An assignment that counts variable reads and fails past ``budget``."""

    def __init__(self, budget):
        super().__init__()
        self.budget = budget
        self.reads = 0

    def _count(self):
        self.reads += 1
        assert self.reads <= self.budget, "evaluate revisited a shared node"

    def __getitem__(self, name):
        self._count()
        return super().__getitem__(name)

    def get(self, name, default=None):
        self._count()
        return super().get(name, default)


class TestCnfBuilder:
    def _equisatisfiable(self, expr, variables):
        """The Tseitin encoding constrained true must match expr's truth table."""
        builder = CnfBuilder()
        builder.assert_expr(expr)
        for bits in itertools.product([False, True], repeat=len(variables)):
            assignment = dict(zip(variables, bits))
            expected = expr.evaluate(assignment)
            assumptions = []
            for name, value in assignment.items():
                literal = builder.variable(name)
                assumptions.append(literal if value else -literal)
            solver = SatSolver(builder.clauses, builder.variable_count)
            result = solver.solve(assumptions)
            assert result.satisfiable == expected, (expr, assignment)

    def test_and_encoding(self):
        self._equisatisfiable(and_(var("a"), var("b")), ["a", "b"])

    def test_or_encoding(self):
        self._equisatisfiable(or_(var("a"), var("b"), var("c")), ["a", "b", "c"])

    def test_xor_encoding(self):
        self._equisatisfiable(xor_(var("a"), var("b")), ["a", "b"])

    def test_ite_encoding(self):
        from repro.boolean.expr import BIte

        self._equisatisfiable(BIte(var("c"), var("a"), var("b")), ["a", "b", "c"])

    def test_nested_encoding(self):
        expr = or_(and_(var("a"), not_(var("b"))), xor_(var("b"), var("c")))
        self._equisatisfiable(expr, ["a", "b", "c"])

    def test_constant_true_assertable(self):
        builder = CnfBuilder()
        builder.assert_expr(TRUE)
        assert solve_clauses(builder.clauses, builder.variable_count).satisfiable

    def test_constant_false_unsatisfiable(self):
        builder = CnfBuilder()
        builder.assert_expr(FALSE)
        assert not solve_clauses(builder.clauses, builder.variable_count).satisfiable

    def test_decode_model_names(self):
        builder = CnfBuilder()
        builder.assert_expr(and_(var("x"), not_(var("y"))))
        result = solve_clauses(builder.clauses, builder.variable_count)
        model = builder.decode_model(result.model)
        assert model["x"] is True and model["y"] is False

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            CnfBuilder().add_clause(())


class TestSatSolver:
    def test_trivially_satisfiable(self):
        assert solve_clauses([(1,)], 1).satisfiable

    def test_trivially_unsatisfiable(self):
        assert not solve_clauses([(1,), (-1,)], 1).satisfiable

    def test_requires_propagation_chain(self):
        clauses = [(1,), (-1, 2), (-2, 3), (-3, 4)]
        result = solve_clauses(clauses, 4)
        assert result.satisfiable
        assert all(result.model[v] for v in (1, 2, 3, 4))

    def test_pigeonhole_2_into_1_is_unsat(self):
        # Two pigeons, one hole: p1 and p2 both must be placed, not together.
        clauses = [(1,), (2,), (-1, -2)]
        assert not solve_clauses(clauses, 2).satisfiable

    def test_unsat_with_learning(self):
        # A small formula that forces conflicts before concluding UNSAT.
        clauses = [(1, 2), (1, -2), (-1, 3), (-1, -3)]
        assert not solve_clauses(clauses, 3).satisfiable

    def test_assumptions_restrict_search(self):
        clauses = [(1, 2)]
        assert solve_clauses(clauses, 2, assumptions=[-1]).satisfiable
        assert not solve_clauses(clauses, 2, assumptions=[-1, -2]).satisfiable

    def test_tautological_clause_ignored(self):
        solver = SatSolver()
        solver.add_clause((1, -1))
        assert solver.solve().satisfiable

    def test_literal_zero_rejected(self):
        with pytest.raises(ValueError):
            SatSolver().add_clause((0,))

    def test_solve_expr_returns_named_model(self):
        expr = and_(var("p"), or_(var("q"), var("r")), not_(var("q")))
        result, model = solve_expr(expr)
        assert result.satisfiable
        assert expr.evaluate(model)

    def test_model_satisfies_all_clauses(self):
        clauses = [(1, 2, 3), (-1, 2), (-2, 3), (-3, -1)]
        result = solve_clauses(clauses, 3)
        assert result.satisfiable
        model = {v: result.model.get(v, False) for v in range(1, 4)}
        for clause in clauses:
            assert any(model[abs(l)] if l > 0 else not model[abs(l)] for l in clause)


@st.composite
def random_cnf(draw):
    variable_count = draw(st.integers(2, 7))
    clause_count = draw(st.integers(1, 20))
    clauses = []
    for _ in range(clause_count):
        size = draw(st.integers(1, 3))
        clause = tuple(
            draw(st.sampled_from([1, -1])) * draw(st.integers(1, variable_count))
            for _ in range(size)
        )
        clauses.append(clause)
    return variable_count, clauses


@settings(max_examples=60, deadline=None)
@given(random_cnf())
def test_sat_solver_matches_brute_force(problem):
    """Property: CDCL verdict equals exhaustive enumeration."""
    variable_count, clauses = problem
    brute = False
    for bits in itertools.product([False, True], repeat=variable_count):
        assignment = {i + 1: bits[i] for i in range(variable_count)}
        if all(any(assignment[abs(l)] if l > 0 else not assignment[abs(l)] for l in clause)
               for clause in clauses):
            brute = True
            break
    result = solve_clauses(clauses, variable_count)
    assert result.satisfiable == brute
    if result.satisfiable:
        model = {v: result.model.get(v, False) for v in range(1, variable_count + 1)}
        assert all(any(model[abs(l)] if l > 0 else not model[abs(l)] for l in clause)
                   for clause in clauses)
