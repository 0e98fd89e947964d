"""Tests for procedural synthesis (per-signal next-value expressions)."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl.ast import DictContext
from repro.hdl.errors import ElaborationError
from repro.hdl.parser import parse_module
from repro.hdl.synth import synthesize
from repro.sim.simulator import Simulator


class TestBasicSynthesis:
    def test_continuous_assign_becomes_comb(self):
        module = parse_module("""
            module m(a, b, y); input a, b; output y;
              assign y = a & b;
            endmodule
        """)
        synth = synthesize(module)
        assert "y" in synth.comb
        assert synth.support_of("y") == {"a", "b"}

    def test_sequential_if_becomes_mux(self, arbiter2_module):
        synth = synthesize(arbiter2_module)
        assert set(synth.next_state) == {"gnt0", "gnt1"}
        assert synth.support_of("gnt0") == {"rst", "req0", "req1", "gnt0"}

    def test_registers_listed(self, counter_module):
        synth = synthesize(counter_module)
        assert set(synth.registers) == {"count", "rollover"}

    def test_comb_order_respects_dependencies(self):
        module = parse_module("""
            module m(a, y); input a; output y;
              wire t1, t2;
              assign y = t2;
              assign t2 = t1 & a;
              assign t1 = ~a;
            endmodule
        """)
        synth = synthesize(module)
        order = synth.comb_order
        assert order.index("t1") < order.index("t2") < order.index("y")

    def test_flattened_expression_only_references_inputs_and_state(self, counter_module):
        synth = synthesize(counter_module)
        support = synth.flattened_comb("at_max").signals()
        assert support <= set(counter_module.data_input_names) | set(counter_module.state_names)

    def test_unassigned_path_holds_register(self):
        module = parse_module("""
            module m(clk, en, y); input clk, en; output reg y;
              always @(posedge clk) begin
                if (en) y <= 1;
              end
            endmodule
        """)
        synth = synthesize(module)
        ctx = DictContext({"en": 0, "y": 1}, {"en": 1, "y": 1})
        assert synth.next_state["y"].evaluate(ctx) == 1

    def test_case_desugars_to_priority_mux(self):
        module = parse_module("""
            module m(clk, sel, y); input clk; input [1:0] sel; output reg y;
              always @(posedge clk) begin
                case (sel)
                  0: y <= 1;
                  1, 2: y <= 0;
                  default: y <= y;
                endcase
              end
            endmodule
        """)
        synth = synthesize(module)
        widths = {"sel": 2, "y": 1}
        for sel, y in itertools.product(range(4), range(2)):
            expected = 1 if sel == 0 else (0 if sel in (1, 2) else y)
            ctx = DictContext({"sel": sel, "y": y}, widths)
            assert synth.next_state["y"].evaluate(ctx) == expected

    def test_blocking_assignment_visibility(self):
        module = parse_module("""
            module m(a, y); input a; output y; reg y; reg t;
              always @* begin
                t = ~a;
                y = t & a;
              end
            endmodule
        """)
        synth = synthesize(module)
        # y = (~a) & a == 0 for every a.
        for a in (0, 1):
            ctx = DictContext({"a": a, "t": 0, "y": 0}, {"a": 1, "t": 1, "y": 1})
            assert synth.comb["y"].evaluate(ctx) == 0

    def test_unknown_signal_lookup_raises(self, arbiter2_module):
        synth = synthesize(arbiter2_module)
        with pytest.raises(KeyError):
            synth.expression_for("nonexistent")

    def test_check_no_latches_passes_for_full_assignment(self, cex_small_module):
        synthesize(cex_small_module).check_no_latches()

    def test_combinational_cycle_detected(self):
        module = parse_module("""
            module m(a, y); input a; output y;
              wire p, q;
              assign p = q | a;
              assign q = p & a;
              assign y = q;
            endmodule
        """)
        with pytest.raises(ElaborationError, match=r"module 'm':(?=.*\bp\b)(?=.*\bq\b)"):
            synthesize(module)

    def test_combinational_cycle_names_only_the_loop(self):
        module = parse_module("""
            module m(a, y); input a; output y;
              wire c1, c2, c3, r, s, t;
              assign c1 = a;
              assign c2 = c1 & a;
              assign c3 = c2 | a;
              assign r = t ^ c3;
              assign s = r & a;
              assign t = s | a;
              assign y = t;
            endmodule
        """)
        with pytest.raises(ElaborationError, match="module 'm'") as info:
            synthesize(module)
        cycle = str(info.value).split(":", 1)[1]
        named = set(re.findall(r"\w+", cycle))
        assert {"r", "s", "t"} <= named
        assert not named & {"c1", "c2", "c3", "a", "y"}


class TestSynthesisMatchesSimulation:
    """The synthesized next-state functions must agree with the interpreter."""

    @pytest.mark.parametrize("design_fixture", [
        "arbiter2_module", "arbiter4_module", "counter_module",
        "handshake_module", "fetch_module", "b01_module",
    ])
    def test_next_state_agrees_with_simulator(self, design_fixture, request):
        module = request.getfixturevalue(design_fixture)
        synth = synthesize(module)
        simulator = Simulator(module)
        simulator.reset()
        import random
        rng = random.Random(11)
        widths = {name: module.width_of(name) for name in module.signals}
        for _ in range(100):
            inputs = {name: rng.randrange(1 << module.width_of(name))
                      for name in module.data_input_names}
            before = simulator.snapshot()
            before.update(inputs)
            sampled = simulator.step(inputs)
            # Predict each register's new value from the synthesized function
            # evaluated on the pre-edge sample.
            ctx = DictContext(sampled, widths)
            for register in synth.registers:
                predicted = synth.next_state[register].evaluate(ctx)
                assert predicted == simulator.peek(register), (
                    f"register {register}: synthesized function disagrees with simulator"
                )


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_comb_functions_match_interpreter(data):
    """Combinational outputs computed symbolically equal interpreted outputs."""
    from repro.designs import cex_small

    module = cex_small()
    synth = synthesize(module)
    simulator = Simulator(module)
    simulator.reset()
    inputs = {name: data.draw(st.integers(0, 1), label=name)
              for name in module.data_input_names}
    sampled = simulator.step(inputs)
    widths = {name: module.width_of(name) for name in module.signals}
    ctx = DictContext(sampled, widths)
    for output in ("z", "y"):
        assert synth.flattened_comb(output).evaluate(ctx) == sampled[output]
