"""Tests for windowed logic cones and design unrolling."""

from __future__ import annotations

import itertools

from repro.analysis.cone import mining_features, windowed_cone
from repro.analysis.unroll import Unroller, bit_variable
from repro.assertions.assertion import Assertion, Literal
from repro.boolean.expr import support_of
from repro.hdl.parser import parse_module
from repro.sim.simulator import Simulator


class TestCones:
    def test_windowed_cone_excludes_clock_and_reset(self, arbiter2_module):
        cones = windowed_cone(arbiter2_module, "gnt0", window=2)
        for offset, names in cones.items():
            assert "clk" not in names and "rst" not in names

    def test_windowed_cone_includes_feedback_register(self, arbiter2_module):
        cones = windowed_cone(arbiter2_module, "gnt0", window=1)
        assert "gnt0" in cones[0]

    def test_mining_features_primary_inputs_only(self, arbiter2_module):
        features = mining_features(arbiter2_module, "gnt0", 2,
                                   include_internal_state=False)
        for offset, names in features.items():
            assert set(names) <= {"req0", "req1"}

    def test_mining_features_restricted_to_cone(self, cex_small_module):
        features = mining_features(cex_small_module, "z", 1)
        # Output z depends only on a, b, c — d must not appear.
        assert "d" not in features[0]
        assert {"a", "b", "c"} <= set(features[0])


class TestUnroller:
    def test_unrolled_registers_start_at_reset_values(self, arbiter2_module):
        design = Unroller(arbiter2_module).unroll(1)
        bits = design.signal_bits("gnt0", 0)
        assert all(bit.support() == frozenset() for bit in bits)
        assert all(bit.evaluate({}) is False for bit in bits)

    def test_unrolled_cycle_matches_simulation(self, arbiter2_module):
        """Registers at cycle k of the unrolling equal the simulator's values."""
        unroller = Unroller(arbiter2_module)
        design = unroller.unroll(3)
        simulator = Simulator(arbiter2_module)
        for req_sequence in itertools.product(range(4), repeat=3):
            vectors = [{"rst": 0, "req0": bits & 1, "req1": (bits >> 1) & 1}
                       for bits in req_sequence]
            trace = simulator.run_vectors(vectors)
            assignment = {}
            for cycle, vector in enumerate(vectors):
                assignment[bit_variable("req0", 0, cycle)] = bool(vector["req0"])
                assignment[bit_variable("req1", 0, cycle)] = bool(vector["req1"])
            for cycle in range(3):
                expected = trace.value("gnt0", cycle)
                bit = design.signal_bits("gnt0", cycle)[0]
                assert bit.support() <= assignment.keys()
                assert bit.evaluate(assignment) == bool(expected)

    def test_literal_expr_bit_and_vector(self, counter_module):
        design = Unroller(counter_module).unroll(1)
        # Vector equality literal: count@0 == 0 holds from reset.
        literal = Literal("count", 0, 0)
        assert design.literal_expr(literal).support() == frozenset()
        assert design.literal_expr(literal).evaluate({}) is True
        literal_bit = Literal("count", 1, 0, bit=0)
        assert design.literal_expr(literal_bit).support() == frozenset()
        assert design.literal_expr(literal_bit).evaluate({}) is False

    def test_literal_expr_memo_is_shared_by_views(self, counter_module):
        unroller = Unroller(counter_module)
        design = unroller.unroll(3)
        literal = Literal("count", 2, 1)
        expr = design.literal_expr(literal)
        view = unroller.unroll(1)
        assert view.literals is design.literals
        assert view.literal_expr(literal) is expr
        assert design.literals[("count", 2, 1, None)] is expr
        # Equal to a fresh unrolling's function (hash-consing makes it
        # the same node).
        assert Unroller(counter_module).unroll(1).literal_expr(literal) is expr

    def test_assertion_violation_expression(self, arbiter2_module):
        design = Unroller(arbiter2_module).unroll(1)
        assertion = Assertion((Literal("req0", 1, 0),), Literal("gnt0", 1, 1), window=1)
        violation = design.assertion_violation(assertion)
        # req0=1 at cycle 0 makes gnt0=1 at cycle 1, so no violation exists.
        assignment = {bit_variable("req0", 0, 0): True, bit_variable("req1", 0, 0): False}
        assert violation.support() <= assignment.keys()
        assert violation.evaluate(assignment) is False

    def test_model_to_vectors_round_trip(self, arbiter2_module):
        design = Unroller(arbiter2_module).unroll(1)
        model = {bit_variable("req0", 0, 0): True, bit_variable("req1", 0, 1): True}
        vectors = design.model_to_vectors(model, 2)
        assert len(vectors) == 2
        assert design.model_to_vectors(model, 1) == vectors[:1]
        assert vectors[0]["req0"] == 1 and vectors[0]["req1"] == 0
        assert vectors[1]["req1"] == 1
        assert vectors[0]["rst"] == 0

    def test_free_initial_state_variables(self, arbiter2_module):
        design = Unroller(arbiter2_module).unroll(1, from_reset=False)
        assert bit_variable("gnt0", 0, 0) in design.state_bit_names

    def test_transition_functions_cover_all_registers(self, fetch_module):
        """The BDD engine's transition relation: each register's cycle-1
        bits of the free-initial-state unrolling read cycle-0 bits only."""
        design = Unroller(fetch_module).unroll(1, from_reset=False)
        for name in fetch_module.state_names:
            bits = design.signal_bits(name, 1)
            assert len(bits) == fetch_module.width_of(name)
            for function in bits:
                assert all(variable.endswith("@0")
                           for variable in support_of(function))
        assert len(design.signal_bits("pc", 1)) == 3
