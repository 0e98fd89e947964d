"""Tests for the BDD package."""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.boolean.bdd import BDD
from repro.boolean.expr import and_, ite as bite, not_, or_, var, xor_


class TestBasicOperations:
    def test_terminals(self):
        bdd = BDD()
        assert bdd.is_tautology(bdd.ONE)
        assert bdd.is_contradiction(bdd.ZERO)

    def test_variable_evaluation(self):
        bdd = BDD(["a"])
        node = bdd.var("a")
        assert bdd.evaluate(node, {"a": True})
        assert not bdd.evaluate(node, {"a": False})

    def test_and_or_not(self):
        bdd = BDD(["a", "b"])
        a, b = bdd.var("a"), bdd.var("b")
        conj = bdd.and_(a, b)
        disj = bdd.or_(a, b)
        assert bdd.evaluate(conj, {"a": True, "b": True})
        assert not bdd.evaluate(conj, {"a": True, "b": False})
        assert bdd.evaluate(disj, {"a": False, "b": True})
        assert bdd.evaluate(bdd.not_(a), {"a": False})

    def test_canonicity_of_equivalent_functions(self):
        bdd = BDD(["a", "b"])
        a, b = bdd.var("a"), bdd.var("b")
        demorgan_left = bdd.not_(bdd.and_(a, b))
        demorgan_right = bdd.or_(bdd.not_(a), bdd.not_(b))
        assert demorgan_left == demorgan_right  # identical node ids

    def test_tautology_detection(self):
        bdd = BDD(["a"])
        a = bdd.var("a")
        assert bdd.or_(a, bdd.not_(a)) == bdd.ONE
        assert bdd.and_(a, bdd.not_(a)) == bdd.ZERO

    def test_xor_iff_implies(self):
        bdd = BDD(["a", "b"])
        a, b = bdd.var("a"), bdd.var("b")
        for va, vb in itertools.product([False, True], repeat=2):
            env = {"a": va, "b": vb}
            assert bdd.evaluate(bdd.xor_(a, b), env) == (va != vb)
            assert bdd.evaluate(bdd.iff(a, b), env) == (va == vb)
            assert bdd.evaluate(bdd.implies(a, b), env) == ((not va) or vb)


class TestStructuralOperations:
    def test_restrict(self):
        bdd = BDD(["a", "b"])
        expr = bdd.and_(bdd.var("a"), bdd.var("b"))
        assert bdd.restrict(expr, {"a": True}) == bdd.var("b")
        assert bdd.restrict(expr, {"a": False}) == bdd.ZERO

    def test_exists_quantification(self):
        bdd = BDD(["a", "b"])
        expr = bdd.and_(bdd.var("a"), bdd.var("b"))
        assert bdd.exists(["a"], expr) == bdd.var("b")
        assert bdd.exists(["a", "b"], expr) == bdd.ONE

    def test_exists_of_contradiction(self):
        bdd = BDD(["a"])
        assert bdd.exists(["a"], bdd.ZERO) == bdd.ZERO

    def test_rename(self):
        bdd = BDD(["a", "b", "c"])
        expr = bdd.and_(bdd.var("a"), bdd.var("b"))
        renamed = bdd.rename(expr, {"a": "c"})
        assert bdd.evaluate(renamed, {"c": True, "b": True})
        assert not bdd.evaluate(renamed, {"c": False, "b": True, "a": True})

    def test_support(self):
        bdd = BDD(["a", "b", "c"])
        expr = bdd.or_(bdd.var("a"), bdd.var("c"))
        assert bdd.support(expr) == {"a", "c"}

    def test_pick_assignment_satisfies(self):
        bdd = BDD(["a", "b", "c"])
        expr = bdd.and_(bdd.var("a"), bdd.not_(bdd.var("b")))
        assignment = bdd.pick_assignment(expr)
        assert assignment is not None
        assert bdd.evaluate(expr, assignment)

    def test_pick_assignment_of_zero_is_none(self):
        bdd = BDD(["a"])
        assert bdd.pick_assignment(bdd.ZERO) is None

    def test_count_solutions(self):
        bdd = BDD(["a", "b", "c"])
        expr = bdd.or_(bdd.var("a"), bdd.var("b"))
        # a|b has 6 satisfying assignments over 3 variables.
        assert bdd.count_solutions(expr, 3) == 6
        assert bdd.count_solutions(bdd.ONE, 3) == 8
        assert bdd.count_solutions(bdd.ZERO, 3) == 0

    def test_from_expr_matches_evaluation(self):
        bdd = BDD(["a", "b", "c"])
        expr = bite(var("a"), xor_(var("b"), var("c")), and_(var("b"), var("c")))
        node = bdd.from_expr(expr)
        for bits in itertools.product([False, True], repeat=3):
            env = dict(zip(["a", "b", "c"], bits))
            assert expr.support() <= env.keys()
            assert bdd.evaluate(node, env) == expr.evaluate(env)


@st.composite
def boolean_expression(draw, names=("a", "b", "c", "d"), depth=3):
    if depth == 0 or draw(st.booleans()):
        return var(draw(st.sampled_from(names)))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return not_(draw(boolean_expression(names=names, depth=depth - 1)))
    left = draw(boolean_expression(names=names, depth=depth - 1))
    right = draw(boolean_expression(names=names, depth=depth - 1))
    if kind == 1:
        return and_(left, right)
    if kind == 2:
        return or_(left, right)
    return xor_(left, right)


@settings(max_examples=60, deadline=None)
@given(boolean_expression())
def test_bdd_agrees_with_direct_evaluation(expr):
    """Property: the BDD of an expression computes the same function."""
    names = ["a", "b", "c", "d"]
    bdd = BDD(names)
    node = bdd.from_expr(expr)
    assert expr.support() <= set(names)
    count = 0
    for bits in itertools.product([False, True], repeat=len(names)):
        env = dict(zip(names, bits))
        expected = expr.evaluate(env)
        assert bdd.evaluate(node, env) == expected
        count += int(expected)
    assert bdd.count_solutions(node, len(names)) == count
