"""Tests for bit-blasting word-level expressions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.bitblast import BitBlaster, default_bit_name, signal_variables
from repro.hdl.ast import (
    BinaryOp,
    BitSelect,
    Concat,
    Const,
    DictContext,
    PartSelect,
    Ref,
    Ternary,
    UnaryOp,
)

WIDTHS = {"x": 4, "y": 3, "b": 1}


def blast_value(expr, values):
    """Evaluate the blasted bits of ``expr`` under concrete signal values."""
    blaster = BitBlaster(lambda name: WIDTHS[name])
    bits = blaster.blast(expr)
    assignment = {}
    for name, width in WIDTHS.items():
        for bit in range(width):
            assignment[default_bit_name(name, bit)] = bool((values[name] >> bit) & 1)
    result = 0
    for index, bit in enumerate(bits):
        # evaluate() reads absent variables as 0: pin a complete assignment.
        assert bit.support() <= assignment.keys()
        if bit.evaluate(assignment):
            result |= 1 << index
    return result, len(bits)


def word_value(expr, values):
    return expr.evaluate(DictContext(values, WIDTHS))


class TestBlastOperators:
    @pytest.mark.parametrize("expr", [
        Const(9, 4),
        Ref("x"),
        BitSelect("x", 2),
        PartSelect("x", 3, 1),
        UnaryOp("~", Ref("x")),
        UnaryOp("!", Ref("x")),
        UnaryOp("-", Ref("x")),
        UnaryOp("&", Ref("x")),
        UnaryOp("|", Ref("x")),
        UnaryOp("^", Ref("x")),
        BinaryOp("&", Ref("x"), Ref("y")),
        BinaryOp("|", Ref("x"), Ref("y")),
        BinaryOp("^", Ref("x"), Ref("y")),
        BinaryOp("+", Ref("x"), Ref("y")),
        BinaryOp("-", Ref("x"), Ref("y")),
        BinaryOp("*", Ref("x"), Ref("y")),
        BinaryOp("==", Ref("x"), Ref("y")),
        BinaryOp("!=", Ref("x"), Ref("y")),
        BinaryOp("<", Ref("x"), Ref("y")),
        BinaryOp("<=", Ref("x"), Ref("y")),
        BinaryOp(">", Ref("x"), Ref("y")),
        BinaryOp(">=", Ref("x"), Ref("y")),
        BinaryOp("&&", Ref("x"), Ref("y")),
        BinaryOp("||", Ref("x"), Ref("y")),
        BinaryOp("<<", Ref("x"), Const(2)),
        BinaryOp(">>", Ref("x"), Const(1)),
        BinaryOp("<<", Ref("x"), Ref("y")),
        BinaryOp(">>", Ref("x"), Ref("y")),
        Ternary(Ref("b"), Ref("x"), UnaryOp("~", Ref("x"))),
        Concat((Ref("b"), Ref("y"))),
    ])
    def test_blast_matches_word_evaluation(self, expr):
        for values in ({"x": 5, "y": 3, "b": 1}, {"x": 12, "y": 7, "b": 0},
                       {"x": 0, "y": 0, "b": 0}, {"x": 15, "y": 1, "b": 1}):
            blasted, width = blast_value(expr, values)
            expected = word_value(expr, values) & ((1 << width) - 1)
            assert blasted == expected, f"{expr.to_verilog()} with {values}"

    def test_signal_variables_naming(self):
        bits = signal_variables("x", 3)
        assert [b.name for b in bits] == ["x[0]", "x[1]", "x[2]"]

    def test_blast_resizes_to_requested_width(self):
        blaster = BitBlaster(lambda name: WIDTHS[name])
        bits = blaster.blast(Ref("y"), width=6)
        assert len(bits) == 6

    def test_blast_bool_reduces_to_nonzero(self):
        blaster = BitBlaster(lambda name: WIDTHS[name])
        condition = blaster.blast_bool(Ref("x"))
        env = {default_bit_name("x", i): False for i in range(4)}
        assert condition.evaluate(env) is False
        env[default_bit_name("x", 2)] = True
        assert condition.evaluate(env) is True

    def test_custom_signal_bits_callback(self):
        from repro.boolean.expr import TRUE, FALSE

        blaster = BitBlaster(lambda name: WIDTHS[name],
                             signal_bits=lambda name: [TRUE, FALSE, TRUE, FALSE])
        bits = blaster.blast(Ref("x"))
        assert [b is TRUE for b in bits] == [True, False, True, False]


@st.composite
def word_expression(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return Const(draw(st.integers(0, 15)), draw(st.integers(1, 4)))
        name = draw(st.sampled_from(sorted(WIDTHS)))
        if choice == 1:
            return Ref(name)
        return BitSelect(name, draw(st.integers(0, WIDTHS[name] - 1)))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        op = draw(st.sampled_from(["~", "!", "-", "&", "|", "^"]))
        return UnaryOp(op, draw(word_expression(depth=depth - 1)))
    if kind == 1:
        op = draw(st.sampled_from(["&", "|", "^", "+", "-", "*", "==", "!=",
                                   "<", "<=", ">", ">=", "&&", "||"]))
        return BinaryOp(op, draw(word_expression(depth=depth - 1)),
                        draw(word_expression(depth=depth - 1)))
    if kind == 2:
        return Ternary(draw(word_expression(depth=depth - 1)),
                       draw(word_expression(depth=depth - 1)),
                       draw(word_expression(depth=depth - 1)))
    return Concat((draw(word_expression(depth=depth - 1)),
                   draw(word_expression(depth=depth - 1))))


@settings(max_examples=80, deadline=None)
@given(expr=word_expression(),
       x=st.integers(0, 15), y=st.integers(0, 7), b=st.integers(0, 1))
def test_bitblast_equals_word_semantics(expr, x, y, b):
    """Property: bit-level and word-level evaluation agree on every operator."""
    values = {"x": x, "y": y, "b": b}
    blasted, width = blast_value(expr, values)
    expected = word_value(expr, values) & ((1 << width) - 1) if width else 0
    assert blasted == expected
