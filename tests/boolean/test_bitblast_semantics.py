"""Property-based differential semantics: BitBlaster vs ``Expr.evaluate``.

The bit-blaster is the single translation step between the word-level
HDL semantics and everything Boolean — CNF encodings, BDD transfer
functions, the compiled batched simulator.  These tests pit the blasted
bit functions against the interpreter's :meth:`Expr.evaluate` over
random operand widths and random values for **every** unary and binary
operator the AST defines (the op lists are swept from
:data:`UNARY_OPS` / :data:`BINARY_OPS`, so a newly added operator is
covered — or loudly unsupported — automatically).

Width mixing is the point: shift amounts both wider and narrower than
the shifted value, compares between unequal widths, concatenations of
odd widths, ternaries whose arms disagree — exactly the shapes a
synthesized netlist feeds the blaster.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.bitblast import BitBlaster, default_bit_name
from repro.hdl.ast import (
    BINARY_OPS,
    UNARY_OPS,
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

MAX_WIDTH = 8


def assert_blast_matches(expr, widths, values):
    """Blasted bits and the word interpreter agree modulo result width."""
    blaster = BitBlaster(lambda name: widths[name])
    bits = blaster.blast(expr)
    assignment = {}
    for name, width in widths.items():
        for bit in range(width):
            assignment[default_bit_name(name, bit)] = \
                bool((values[name] >> bit) & 1)
    blasted = 0
    for index, bit in enumerate(bits):
        # evaluate() reads absent variables as 0: pin a complete assignment.
        assert bit.support() <= assignment.keys()
        if bit.evaluate(assignment):
            blasted |= 1 << index
    expected = expr.evaluate(DictContext(values, widths)) & ((1 << len(bits)) - 1)
    assert blasted == expected, (
        f"{expr.to_verilog()} widths={widths} values={values}: "
        f"blasted {blasted:#x} != evaluated {expected:#x}")


@st.composite
def operands(draw, names=("x", "y")):
    """Random widths (1..MAX_WIDTH) and in-range values for ``names``."""
    widths = {name: draw(st.integers(1, MAX_WIDTH)) for name in names}
    values = {name: draw(st.integers(0, (1 << widths[name]) - 1))
              for name in names}
    return widths, values


class TestEveryOperator:
    @pytest.mark.parametrize("op", BINARY_OPS)
    @settings(max_examples=60, deadline=None)
    @given(data=operands())
    def test_binary_op_differential(self, op, data):
        widths, values = data
        assert_blast_matches(BinaryOp(op, Ref("x"), Ref("y")), widths, values)

    @pytest.mark.parametrize("op", UNARY_OPS)
    @settings(max_examples=60, deadline=None)
    @given(data=operands(names=("x",)))
    def test_unary_op_differential(self, op, data):
        widths, values = data
        assert_blast_matches(UnaryOp(op, Ref("x")), widths, values)


class TestShiftWidths:
    """Variable shift amounts wider and narrower than the shifted value."""

    @pytest.mark.parametrize("op", ("<<", ">>"))
    @settings(max_examples=60, deadline=None)
    @given(value_width=st.integers(1, 3), amount_width=st.integers(4, MAX_WIDTH),
           data=st.data())
    def test_amount_wider_than_value(self, op, value_width, amount_width, data):
        widths = {"x": value_width, "y": amount_width}
        values = {name: data.draw(st.integers(0, (1 << widths[name]) - 1))
                  for name in widths}
        assert_blast_matches(BinaryOp(op, Ref("x"), Ref("y")), widths, values)

    @pytest.mark.parametrize("op", ("<<", ">>"))
    @settings(max_examples=60, deadline=None)
    @given(value_width=st.integers(4, MAX_WIDTH), amount_width=st.integers(1, 3),
           data=st.data())
    def test_amount_narrower_than_value(self, op, value_width, amount_width,
                                        data):
        widths = {"x": value_width, "y": amount_width}
        values = {name: data.draw(st.integers(0, (1 << widths[name]) - 1))
                  for name in widths}
        assert_blast_matches(BinaryOp(op, Ref("x"), Ref("y")), widths, values)

    @pytest.mark.parametrize("op", ("<<", ">>"))
    @settings(max_examples=40, deadline=None)
    @given(amount=st.integers(0, 2 * MAX_WIDTH), data=st.data())
    def test_constant_amount_past_width(self, op, amount, data):
        """Constant shifts, including amounts >= the value's width."""
        widths = {"x": data.draw(st.integers(1, MAX_WIDTH))}
        values = {"x": data.draw(st.integers(0, (1 << widths["x"]) - 1))}
        assert_blast_matches(BinaryOp(op, Ref("x"), Const(amount)), widths,
                             values)


class TestMixedWidthCompares:
    @pytest.mark.parametrize("op", ("==", "!=", "<", "<=", ">", ">="))
    @settings(max_examples=60, deadline=None)
    @given(data=operands())
    def test_compare_unequal_widths(self, data, op):
        widths, values = data
        # Force genuinely unequal widths: widen x by y's width.
        values = {"x": values["x"] | (values["y"] << widths["x"]),
                  "y": values["y"]}
        widths = {"x": widths["x"] + widths["y"], "y": widths["y"]}
        assert_blast_matches(BinaryOp(op, Ref("x"), Ref("y")), widths, values)


class TestStructuredExpressions:
    @settings(max_examples=60, deadline=None)
    @given(data=operands(names=("x", "y", "z")))
    def test_concat(self, data):
        widths, values = data
        assert_blast_matches(Concat((Ref("x"), Ref("y"), Ref("z"))), widths,
                             values)

    @settings(max_examples=60, deadline=None)
    @given(data=operands(names=("b", "x", "y")))
    def test_ternary_mixed_width_arms(self, data):
        widths, values = data
        widths["b"] = 1
        values["b"] &= 1
        assert_blast_matches(Ternary(Ref("b"), Ref("x"), Ref("y")), widths,
                             values)

    @settings(max_examples=60, deadline=None)
    @given(data=operands(names=("x",)), index=st.integers(0, MAX_WIDTH - 1))
    def test_bit_select(self, data, index):
        widths, values = data
        index %= widths["x"]
        assert_blast_matches(BitSelect("x", index), widths, values)

    @settings(max_examples=60, deadline=None)
    @given(data=operands(names=("x",)), span=st.data())
    def test_part_select(self, data, span):
        widths, values = data
        low = span.draw(st.integers(0, widths["x"] - 1))
        high = span.draw(st.integers(low, widths["x"] - 1))
        assert_blast_matches(PartSelect("x", high, low), widths, values)

    @settings(max_examples=40, deadline=None)
    @given(data=operands(names=("x", "y", "b")))
    def test_nested_expression(self, data):
        """A netlist-shaped nest: compare of arith over mixed widths."""
        widths, values = data
        widths["b"] = 1
        values["b"] &= 1
        expr = Ternary(
            Ref("b"),
            BinaryOp("==", BinaryOp("+", Ref("x"), Ref("y")), Ref("x")),
            BinaryOp("<", UnaryOp("~", Ref("x")), Ref("y")),
        )
        assert_blast_matches(expr, widths, values)
