"""Tests for assertion objects, rendering and trace evaluation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.assertions.assertion import (
    Assertion,
    Literal,
    combined_input_space_coverage,
    input_space_fraction,
)
from repro.assertions.evaluate import (
    assertion_holds_on_trace,
    count_matches,
    violated_assertions,
)
from repro.assertions.render import to_ltl, to_psl, to_sva
from repro.mining.dataset import FeatureSpec
from repro.sim.trace import Trace


def make_assertion(antecedent, consequent, window=1, name=""):
    return Assertion(tuple(antecedent), consequent, window, name)


class TestLiteral:
    def test_column_naming(self):
        """A mined feature's column name is its literal's rendered name."""
        assert FeatureSpec("req0", 0).column == "req0@0"
        assert FeatureSpec("bus", 2, 3).column == "bus[3]@2"
        for spec in (FeatureSpec("req0", 0), FeatureSpec("bus", 2, 3)):
            assert spec.to_literal(1) == Literal(spec.signal, 1, spec.cycle, spec.bit)
            assert spec.to_literal(1).describe() == f"{spec.column}=1"

    def test_feature_literals_are_built_once(self):
        spec = FeatureSpec("bus", 2, 3)
        zero, one = spec.to_literal(0), spec.to_literal(1)
        assert spec.to_literal(0) is zero and spec.to_literal(1) is one
        assert (zero, one) == (Literal("bus", 0, 2, 3), Literal("bus", 1, 2, 3))
        assert spec == FeatureSpec("bus", 2, 3)
        assert hash(spec) == hash(FeatureSpec("bus", 2, 3))

    def test_holds_whole_signal(self):
        literal = Literal("count", 5, 0)
        assert literal.holds({0: {"count": 5}})
        assert not literal.holds({0: {"count": 4}})

    def test_holds_bit_level(self):
        literal = Literal("count", 1, 0, bit=2)
        assert literal.holds({0: {"count": 0b100}})
        assert not literal.holds({0: {"count": 0b011}})

    def test_negated(self):
        assert Literal("a", 1, 0).negated() == Literal("a", 0, 0)

    def test_negate_multibit_value_rejected(self):
        with pytest.raises(ValueError):
            Literal("bus", 3, 0).negated()

    def test_invalid_cycle_rejected(self):
        with pytest.raises(ValueError):
            Literal("a", 1, -1)

    def test_bit_literal_value_must_be_binary(self):
        with pytest.raises(ValueError):
            Literal("bus", 2, 0, bit=1)


class TestAssertion:
    def test_equality_ignores_name_and_support(self):
        base = make_assertion([Literal("a", 1, 0)], Literal("z", 1, 1))
        renamed = base.with_name("different")
        assert base == renamed
        assert hash(base) == hash(renamed)

    def test_with_name_copies_without_revalidating(self, monkeypatch):
        base = Assertion((Literal("b", 0, 0), Literal("a", 1, 0)),
                         Literal("z", 1, 1), 1, "old", 0.5, 7)
        hash(base)

        def fail(self):
            raise AssertionError("with_name re-ran __post_init__")

        monkeypatch.setattr(Assertion, "__post_init__", fail)
        renamed = base.with_name("new")
        assert type(renamed) is Assertion and renamed is not base
        assert (renamed.name, base.name) == ("new", "old")
        assert renamed.to_json() == {**base.to_json(), "name": "new"}
        assert vars(renamed)["_hash"] == hash(base)

    def test_depth_counts_antecedent(self):
        assertion = make_assertion([Literal("a", 1, 0), Literal("b", 0, 0)],
                                   Literal("z", 1, 1))
        assert assertion.depth == 2

    def test_antecedent_outside_window_rejected(self):
        with pytest.raises(ValueError):
            Assertion((Literal("a", 1, 5),), Literal("z", 1, 1), window=1)

    def test_holds_implication_semantics(self):
        assertion = make_assertion([Literal("a", 1, 0)], Literal("z", 1, 1))
        assert assertion.holds({0: {"a": 1, "z": 0}, 1: {"a": 0, "z": 1}})
        assert assertion.holds({0: {"a": 0, "z": 0}, 1: {"a": 0, "z": 0}})  # vacuous
        assert not assertion.holds({0: {"a": 1, "z": 0}, 1: {"a": 0, "z": 0}})

    def test_support_variables(self):
        assertion = make_assertion([Literal("a", 1, 0), Literal("b", 0, 1)],
                                   Literal("z", 1, 2), window=2)
        assert assertion.support_variables() == {"a", "b", "z"}

    def test_input_space_fraction(self):
        assert input_space_fraction(make_assertion([], Literal("z", 0, 1))) == 1.0
        depth2 = make_assertion([Literal("a", 1, 0), Literal("b", 1, 0)], Literal("z", 1, 1))
        assert input_space_fraction(depth2) == 0.25

    def test_combined_coverage_caps_at_one(self):
        assertions = [make_assertion([], Literal("z", 0, 1)),
                      make_assertion([Literal("a", 1, 0)], Literal("z", 1, 1))]
        assert combined_input_space_coverage(assertions) == 1.0

    def test_span(self):
        assertion = make_assertion([Literal("a", 1, 0)], Literal("z", 1, 2), window=2)
        assert assertion.span == 3


class TestRendering:
    def test_ltl_rendering(self):
        assertion = make_assertion(
            [Literal("req0", 1, 0), Literal("req1", 0, 1)],
            Literal("gnt0", 1, 2), window=2)
        text = to_ltl(assertion)
        assert "req0" in text and "X !req1" in text and "|-> X X gnt0" in text

    def test_ltl_empty_antecedent(self):
        assertion = make_assertion([], Literal("gnt0", 0, 1))
        assert to_ltl(assertion).startswith("1 |->")

    def test_sva_rendering_contains_delays_and_clock(self):
        assertion = make_assertion(
            [Literal("req0", 1, 0), Literal("req1", 0, 1)],
            Literal("gnt0", 1, 2), window=2, name="a1")
        text = to_sva(assertion, clock="clk", reset="rst")
        assert text.startswith("a1: assert property (@(posedge clk)")
        assert "##1" in text and "disable iff (rst)" in text
        assert text.endswith(");")

    def test_psl_rendering_uses_next(self):
        assertion = make_assertion([Literal("a", 1, 1)], Literal("z", 1, 2), window=2)
        text = to_psl(assertion)
        assert "next[1]" in text and "next[2]" in text

    def test_multibit_proposition_rendered_as_equality(self):
        assertion = make_assertion([Literal("count", 5, 0)], Literal("z", 1, 1))
        assert "count == 5" in to_ltl(assertion)


class TestTraceEvaluation:
    def _trace(self):
        return Trace(("a", "z"), [(1, 0), (0, 1), (1, 0), (0, 0)])

    def test_assertion_holds_on_trace(self):
        # a=1 implies z=1 on the next cycle: rows (0,1) ok, rows (2,3) violated.
        assertion = make_assertion([Literal("a", 1, 0)], Literal("z", 1, 1))
        assert not assertion_holds_on_trace(assertion, self._trace())

    def test_vacuous_when_antecedent_never_fires(self):
        assertion = make_assertion([Literal("a", 1, 0), Literal("z", 1, 0)],
                                   Literal("z", 1, 1))
        assert assertion_holds_on_trace(assertion, self._trace())

    def test_short_trace_is_vacuously_true(self):
        assertion = make_assertion([Literal("a", 1, 0)], Literal("z", 1, 3), window=3)
        assert assertion_holds_on_trace(assertion, Trace(("a", "z"), [(1, 1)]))

    def test_count_matches(self):
        assertion = make_assertion([Literal("a", 1, 0)], Literal("z", 1, 1))
        hits, violations = count_matches(assertion, self._trace())
        assert hits == 2 and violations == 1

    def test_violated_assertions_filter(self):
        good = make_assertion([Literal("a", 0, 0)], Literal("z", 0, 1))
        bad = make_assertion([Literal("a", 1, 0)], Literal("z", 1, 1))
        violated = violated_assertions([good, bad], self._trace())
        assert violated == [bad]


@given(depth=st.integers(0, 10))
def test_input_space_fraction_halves_per_depth(depth):
    antecedent = tuple(Literal(f"v{i}", 1, 0) for i in range(depth))
    assertion = Assertion(antecedent, Literal("z", 1, 1), window=1)
    assert input_space_fraction(assertion) == pytest.approx(0.5 ** depth)
