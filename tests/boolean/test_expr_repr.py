"""``BoolExpr.__repr__``: the infix text, bounded.

The repr spells the hash-consed DAG out as a tree, so its full length is
exponential in unrolling depth.  It must print short expressions exactly
as the recursive per-class renderers did, stop with ``…`` once
:data:`repro.boolean.expr.REPR_BUDGET` characters are rendered, and never
recurse.
"""

from __future__ import annotations

import time

from repro.analysis.unroll import Unroller
from repro.assertions.assertion import Assertion, Literal
from repro.boolean.expr import (
    FALSE,
    REPR_BUDGET,
    TRUE,
    BAnd,
    BIte,
    BNot,
    BOr,
    BXor,
    and_,
    ite,
    not_,
    or_,
    var,
    xor_,
)
from repro.designs import DESIGNS
from repro.formal.bmc import _shift


def reference_repr(expr) -> str:
    """The recursive renderer the bounded repr must reproduce."""
    if isinstance(expr, BNot):
        return f"~{reference_repr(expr.operand)}"
    if isinstance(expr, (BAnd, BOr)):
        separator = " & " if isinstance(expr, BAnd) else " | "
        return "(" + separator.join(map(reference_repr, expr.operands)) + ")"
    if isinstance(expr, BXor):
        return f"({reference_repr(expr.left)} ^ {reference_repr(expr.right)})"
    if isinstance(expr, BIte):
        return (f"ite({reference_repr(expr.cond)}, {reference_repr(expr.then)}, "
                f"{reference_repr(expr.other)})")
    return repr(expr)


def b01_violation(window_start: int):
    """The b01 violation of ``line1@t -> outp@t+1`` at ``window_start``."""
    module = DESIGNS["b01"].build()
    assertion = Assertion((Literal("line1", 1, 0),), Literal("outp", 1, 1), 2)
    design = Unroller(module).unroll(window_start + 1)
    return design.assertion_violation(_shift(assertion, window_start))


def test_short_expressions_print_as_before():
    a, b, c = var("a"), var("b"), var("c")
    assert repr(TRUE) == "TRUE" and repr(FALSE) == "FALSE" and repr(a) == "a"
    assert repr(not_(a)) == "~a"
    assert repr(and_(a, b, c)) == "(a & b & c)"
    assert repr(or_(a, not_(b))) == "(a | ~b)"
    assert repr(xor_(a, b)) == "(a ^ b)"
    assert repr(ite(a, b, not_(c))) == "ite(a, b, ~c)"
    nested = or_(and_(a, xor_(b, c)), ite(c, not_(and_(a, b)), b))
    assert repr(nested) == "((a & (b ^ c)) | ite(c, ~(a & b), b))"
    assert repr(BAnd((a,))) == "(a)"


def test_unrolled_expressions_match_the_recursive_renderer():
    for window_start in (0, 2, 4):
        violation = b01_violation(window_start)
        full = reference_repr(violation)
        text = repr(violation)
        if len(full) <= REPR_BUDGET:
            assert text == full
        else:
            assert text == full[:REPR_BUDGET] + "…"


def test_window_six_violation_repr_is_bounded_and_fast():
    """Its tree expansion is about 384 million characters."""
    violation = b01_violation(6)
    start = time.perf_counter()
    text = repr(violation)
    elapsed = time.perf_counter() - start
    assert len(text) == REPR_BUDGET + 1 and text.endswith("…")
    assert elapsed < 0.5


def test_deep_chain_reprs_without_recursion_error():
    expr = var("x0")
    for index in range(1, 10_001):
        expr = not_(and_(expr, var(f"x{index % 7}")))
    text = repr(expr)
    assert text.startswith("~(~(~(") and text.endswith("…")
    assert len(text) == REPR_BUDGET + 1
