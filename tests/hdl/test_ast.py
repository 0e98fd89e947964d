"""Tests for the word-level expression AST."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

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
    disjoin,
    equals,
    mask,
)
from repro.hdl.errors import EvaluationError

WIDTHS = {"a": 1, "b": 1, "c": 4, "d": 8}


def ctx(**values):
    return DictContext(values, WIDTHS)


class TestMask:
    def test_masks_to_width(self):
        assert mask(0xFF, 4) == 0xF

    def test_identity_when_in_range(self):
        assert mask(5, 4) == 5

    def test_negative_values_wrap(self):
        assert mask(-1, 4) == 0xF

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            mask(1, 0)


class TestConst:
    def test_value_masked_to_width(self):
        assert Const(0x1F, 4).value == 0xF

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            Const(1, 0)

    def test_evaluate(self):
        assert Const(3, 4).evaluate(ctx()) == 3

    def test_is_boolean_for_0_and_1(self):
        assert Const(1, 1).is_boolean()
        assert not Const(2, 4).is_boolean()

    def test_verilog_rendering(self):
        assert Const(5, 4).to_verilog() == "4'd5"


class TestRefAndSelects:
    def test_ref_reads_context(self):
        assert Ref("c").evaluate(ctx(c=9)) == 9

    def test_ref_width_from_context(self):
        assert Ref("d").width(ctx()) == 8

    def test_ref_unknown_signal_raises(self):
        with pytest.raises(EvaluationError):
            Ref("missing").evaluate(ctx(a=0))

    def test_bitselect_extracts_bit(self):
        assert BitSelect("c", 2).evaluate(ctx(c=0b0100)) == 1
        assert BitSelect("c", 1).evaluate(ctx(c=0b0100)) == 0

    def test_bitselect_negative_index_rejected(self):
        with pytest.raises(ValueError):
            BitSelect("c", -1)

    def test_partselect_extracts_slice(self):
        assert PartSelect("d", 5, 2).evaluate(ctx(d=0b11011100)) == 0b0111

    def test_partselect_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            PartSelect("d", 1, 3)

    def test_signals_collects_reads(self):
        expr = BinaryOp("&", Ref("a"), BitSelect("c", 0))
        assert expr.signals() == {"a", "c"}


class TestUnaryOps:
    def test_bitwise_not_masks_to_width(self):
        assert UnaryOp("~", Ref("c")).evaluate(ctx(c=0b0101)) == 0b1010

    def test_logical_not(self):
        assert UnaryOp("!", Ref("c")).evaluate(ctx(c=0)) == 1
        assert UnaryOp("!", Ref("c")).evaluate(ctx(c=7)) == 0

    def test_reduction_and(self):
        assert UnaryOp("&", Ref("c")).evaluate(ctx(c=0xF)) == 1
        assert UnaryOp("&", Ref("c")).evaluate(ctx(c=0xE)) == 0

    def test_reduction_or(self):
        assert UnaryOp("|", Ref("c")).evaluate(ctx(c=0)) == 0
        assert UnaryOp("|", Ref("c")).evaluate(ctx(c=4)) == 1

    def test_reduction_xor_parity(self):
        assert UnaryOp("^", Ref("c")).evaluate(ctx(c=0b0111)) == 1
        assert UnaryOp("^", Ref("c")).evaluate(ctx(c=0b0101)) == 0

    def test_negate_wraps(self):
        assert UnaryOp("-", Ref("c")).evaluate(ctx(c=1)) == 0xF

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            UnaryOp("%", Ref("a"))

    def test_reduction_width_is_one(self):
        assert UnaryOp("&", Ref("d")).width(ctx()) == 1


class TestBinaryOps:
    @pytest.mark.parametrize("op,left,right,expected", [
        ("&", 0b1100, 0b1010, 0b1000),
        ("|", 0b1100, 0b1010, 0b1110),
        ("^", 0b1100, 0b1010, 0b0110),
        ("+", 7, 12, 3),          # wraps at 4 bits
        ("-", 3, 5, 14),          # wraps at 4 bits
        ("*", 5, 3, 15),
        ("==", 4, 4, 1),
        ("!=", 4, 5, 1),
        ("<", 3, 9, 1),
        (">=", 9, 9, 1),
        ("&&", 5, 0, 0),
        ("||", 0, 2, 1),
        ("<<", 0b0011, 2, 0b1100),
        (">>", 0b1100, 2, 0b0011),
    ])
    def test_operator_semantics(self, op, left, right, expected):
        expr = BinaryOp(op, Ref("c"), Ref("cc"))
        context = DictContext({"c": left, "cc": right}, {"c": 4, "cc": 4})
        assert expr.evaluate(context) == expected

    def test_comparison_width_is_one(self):
        assert BinaryOp("==", Ref("c"), Ref("d")).width(ctx()) == 1

    def test_arith_width_is_max_of_operands(self):
        assert BinaryOp("+", Ref("a"), Ref("d")).width(ctx()) == 8

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            BinaryOp("**", Ref("a"), Ref("b"))

    def test_substitute_replaces_refs(self):
        expr = BinaryOp("&", Ref("a"), Ref("b"))
        replaced = expr.substitute({"a": Const(1, 1)})
        assert replaced.evaluate(ctx(b=1)) == 1
        assert replaced.signals() == {"b"}


class TestTernaryAndConcat:
    def test_ternary_selects_branch(self):
        expr = Ternary(Ref("a"), Const(3, 4), Const(9, 4))
        assert expr.evaluate(ctx(a=1)) == 3
        assert expr.evaluate(ctx(a=0)) == 9

    def test_concat_msb_first(self):
        expr = Concat((Ref("a"), Ref("c")))
        assert expr.evaluate(ctx(a=1, c=0b0011)) == 0b10011

    def test_concat_width(self):
        assert Concat((Ref("a"), Ref("c"))).width(ctx()) == 5

    def test_concat_requires_parts(self):
        with pytest.raises(ValueError):
            Concat(())


class TestHelpers:
    def test_disjoin_empty_is_false(self):
        assert disjoin([]).evaluate(ctx()) == 0

    def test_equals_builds_comparison(self):
        expr = equals("c", 5, 4)
        assert expr.evaluate(ctx(c=5)) == 1
        assert expr.evaluate(ctx(c=4)) == 0


@given(a=st.integers(0, 1), b=st.integers(0, 1),
       c=st.integers(0, 15), d=st.integers(0, 255))
def test_width_masking_invariant(a, b, c, d):
    """Every expression evaluates within its inferred width."""
    context = DictContext({"a": a, "b": b, "c": c, "d": d}, WIDTHS)
    expressions = [
        BinaryOp("+", Ref("c"), Ref("d")),
        BinaryOp("-", Ref("c"), Ref("d")),
        UnaryOp("~", Ref("c")),
        Ternary(Ref("a"), Ref("c"), Ref("d")),
        Concat((Ref("a"), Ref("c"))),
        BinaryOp("<<", Ref("d"), Const(3)),
    ]
    for expr in expressions:
        value = expr.evaluate(context)
        width = expr.width(context)
        assert 0 <= value < (1 << width)


@given(st.integers(0, 15), st.integers(0, 15))
def test_demorgan_property(x, y):
    """~(x & y) == ~x | ~y at 4 bits."""
    context = DictContext({"c": x, "cc": y}, {"c": 4, "cc": 4})
    lhs = UnaryOp("~", BinaryOp("&", Ref("c"), Ref("cc")))
    rhs = BinaryOp("|", UnaryOp("~", Ref("c")), UnaryOp("~", Ref("cc")))
    assert lhs.evaluate(context) == rhs.evaluate(context)
