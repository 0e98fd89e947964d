"""Tests for the Verilog-subset parser and module validation."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl.ast import BinaryOp, Const, Ref, Ternary
from repro.hdl.errors import ElaborationError, HdlError, ParseError
from repro.hdl.module import ProcessKind, SignalKind
from repro.hdl.parser import MAX_EXPRESSION_DEPTH, Parser, parse_module, parse_modules
from repro.hdl.stmt import Assign, Case, If
from repro.hdl.synth import synthesize
from repro.sim import Simulator
from repro.sim.stimulus import RandomStimulus

#: The subset's binary operators by IEEE 1364-2005 precedence, loosest
#: first, each with the spelling the AST uses.
PRECEDENCE = [
    {"||": "||"},
    {"&&": "&&"},
    {"|": "|"},
    {"^": "^", "~^": "~^", "^~": "^~"},
    {"&": "&"},
    {"==": "==", "!=": "!=", "===": "==", "!==": "!="},
    {"<": "<", "<=": "<=", ">": ">", ">=": ">="},
    {"<<": "<<", ">>": ">>", "<<<": "<<", ">>>": ">>"},
    {"+": "+", "-": "-"},
    {"*": "*"},
]
SPELLING = {op: ast_op for level in PRECEDENCE for op, ast_op in level.items()}
LEVEL = {op: rank for rank, level in enumerate(PRECEDENCE) for op in level}


def assigned_expr(expr_text):
    """The expression of ``assign y = <expr_text>;`` in a small module."""
    return parse_module(
        "module m(input [3:0] a, input [3:0] b, input [3:0] c, output [3:0] y);"
        f" assign y = {expr_text}; endmodule"
    ).assigns[0].expr


class TestModuleHeader:
    def test_non_ansi_ports(self, arbiter2_source):
        module = parse_module(arbiter2_source)
        assert module.name == "arbiter2"
        assert module.input_names == ["clk", "rst", "req0", "req1"]
        assert module.output_names == ["gnt0", "gnt1"]

    def test_ansi_ports(self):
        module = parse_module("""
            module m(input clk, input rst, input [3:0] a, output reg [3:0] q);
              always @(posedge clk) begin
                if (rst) q <= 0; else q <= a;
              end
            endmodule
        """)
        assert module.width_of("a") == 4
        assert module.width_of("q") == 4
        assert module.signal("a").kind is SignalKind.INPUT

    def test_empty_port_list(self):
        module = parse_module("module empty(); endmodule")
        assert module.ports == []

    def test_multiple_modules(self):
        modules = parse_modules("""
            module a(x); input x; endmodule
            module b(y); input y; endmodule
        """)
        assert [m.name for m in modules] == ["a", "b"]

    def test_select_module_by_name(self):
        source = "module a(x); input x; endmodule module b(y); input y; endmodule"
        assert parse_module(source, "b").name == "b"

    def test_missing_named_module_raises(self):
        with pytest.raises(ParseError):
            parse_module("module a(x); input x; endmodule", "zzz")

    def test_two_modules_without_name_raises(self):
        with pytest.raises(ParseError):
            parse_module("module a(); endmodule module b(); endmodule")

    def test_no_module_raises(self):
        with pytest.raises(ParseError):
            parse_modules("   // nothing here\n")


class TestDeclarations:
    def test_vector_wire_and_reg(self):
        module = parse_module("""
            module m(a, y); input [7:0] a; output [7:0] y;
              wire [7:0] t;
              assign t = a;
              assign y = t;
            endmodule
        """)
        assert module.width_of("t") == 8
        assert module.signal("t").kind is SignalKind.WIRE

    def test_output_reg_two_step_declaration(self):
        module = parse_module("""
            module m(clk, y); input clk; output y; reg y;
              always @(posedge clk) y <= 1;
            endmodule
        """)
        assert module.signal("y").kind is SignalKind.OUTPUT

    def test_parameter_folding(self):
        module = parse_module("""
            module m(a, y); input [3:0] a; output y;
              parameter THRESHOLD = 5;
              assign y = (a > THRESHOLD);
            endmodule
        """)
        expr = module.assigns[0].expr
        assert isinstance(expr, BinaryOp)
        assert isinstance(expr.right, Const) and expr.right.value == 5

    def test_localparam_in_case_labels(self):
        module = parse_module("""
            module m(clk, sel, y); input clk; input [1:0] sel; output reg y;
              localparam PICK = 2;
              always @(posedge clk) begin
                case (sel)
                  PICK: y <= 1;
                  default: y <= 0;
                endcase
              end
            endmodule
        """)
        case = next(s for s in module.iter_statements() if isinstance(s, Case))
        assert case.items[0].labels == (2,)

    def test_reg_initialisation_becomes_reset_value(self):
        module = parse_module("""
            module m(clk, y); input clk; output y;
              reg state = 1;
              assign y = state;
              always @(posedge clk) state <= ~state;
            endmodule
        """)
        assert module.signal("state").reset_value == 1

    def test_duplicate_declaration_rejected(self):
        with pytest.raises((ParseError, ElaborationError)):
            parse_module("module m(a); input a; wire a; endmodule")


class TestBehaviour:
    def test_continuous_assign_expression(self):
        module = parse_module("""
            module m(a, b, y); input a, b; output y;
              assign y = a ? b : ~b;
            endmodule
        """)
        assert isinstance(module.assigns[0].expr, Ternary)

    def test_sequential_process_detected(self, arbiter2_source):
        module = parse_module(arbiter2_source)
        assert module.processes[0].kind is ProcessKind.SEQUENTIAL
        assert module.clock == "clk"
        assert module.reset == "rst"

    def test_combinational_process_star(self):
        module = parse_module("""
            module m(a, y); input a; output y; reg y;
              always @* y = ~a;
            endmodule
        """)
        assert module.processes[0].kind is ProcessKind.COMBINATIONAL

    def test_combinational_process_sensitivity_list(self):
        module = parse_module("""
            module m(a, b, y); input a, b; output y; reg y;
              always @(a or b) y = a & b;
            endmodule
        """)
        assert module.processes[0].kind is ProcessKind.COMBINATIONAL

    def test_async_reset_style_accepted(self):
        module = parse_module("""
            module m(clk, rst, y); input clk, rst; output reg y;
              always @(posedge clk or posedge rst) begin
                if (rst) y <= 0; else y <= ~y;
              end
            endmodule
        """)
        assert module.processes[0].clock == "clk"

    def test_if_without_else(self):
        module = parse_module("""
            module m(clk, en, y); input clk, en; output reg y;
              always @(posedge clk) begin
                if (en) y <= 1;
              end
            endmodule
        """)
        statement = next(s for s in module.iter_statements() if isinstance(s, If))
        assert statement.otherwise is None

    def test_case_with_multiple_labels(self):
        module = parse_module("""
            module m(clk, sel, y); input clk; input [1:0] sel; output reg y;
              always @(posedge clk) begin
                case (sel)
                  0, 1: y <= 0;
                  default: y <= 1;
                endcase
              end
            endmodule
        """)
        case = next(s for s in module.iter_statements() if isinstance(s, Case))
        assert case.items[0].labels == (0, 1)

    def test_blocking_vs_nonblocking(self):
        module = parse_module("""
            module m(clk, a, y, z); input clk, a; output reg y; output z; reg z;
              always @* z = a;
              always @(posedge clk) y <= a;
            endmodule
        """)
        assigns = list(module.iter_assignments())
        blocking = {a.target: a.blocking for a in assigns}
        assert blocking["z"] is True
        assert blocking["y"] is False

    def test_operator_precedence(self):
        module = parse_module("""
            module m(a, b, c, y); input a, b, c; output y;
              assign y = a | b & c;
            endmodule
        """)
        expr = module.assigns[0].expr
        assert isinstance(expr, BinaryOp) and expr.op == "|"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "&"

    @pytest.mark.parametrize("op", sorted(SPELLING))
    def test_every_binary_operator_is_left_associative(self, op):
        ast_op = SPELLING[op]
        a, b, c = Ref("a"), Ref("b"), Ref("c")
        assert assigned_expr(f"a {op} b {op} c") == \
            BinaryOp(ast_op, BinaryOp(ast_op, a, b), c)

    def test_binary_operators_bind_by_precedence_level(self):
        a, b, c = Ref("a"), Ref("b"), Ref("c")
        for first, second in itertools.product(SPELLING, repeat=2):
            if LEVEL[first] == LEVEL[second]:
                continue
            outer, inner = SPELLING[first], SPELLING[second]
            if LEVEL[first] < LEVEL[second]:
                expected = BinaryOp(outer, a, BinaryOp(inner, b, c))
            else:
                expected = BinaryOp(inner, BinaryOp(outer, a, b), c)
            assert assigned_expr(f"a {first} b {second} c") == expected, (first, second)

    def test_ternary_is_loosest_and_right_associative(self):
        expr = assigned_expr("a || b ? c : a ? b : c")
        assert expr == Ternary(BinaryOp("||", Ref("a"), Ref("b")), Ref("c"),
                               Ternary(Ref("a"), Ref("b"), Ref("c")))

    def test_escaped_identifier_spelled_like_an_operator_is_an_operand(self):
        module = parse_module("module m(input a, input \\+ , output y);"
                              " assign y = a & \\+ ; endmodule")
        assert module.assigns[0].expr == BinaryOp("&", Ref("a"), Ref("+"))

    def test_concat_and_part_select(self):
        module = parse_module("""
            module m(a, y); input [3:0] a; output [3:0] y;
              assign y = {a[2:0], a[3]};
            endmodule
        """)
        assert module.assigns[0].expr.signals() == {"a"}


class TestValidation:
    def test_undeclared_signal_rejected(self):
        with pytest.raises(ElaborationError):
            parse_module("module m(a, y); input a; output y; assign y = a & missing; endmodule")

    def test_multiple_drivers_rejected(self):
        with pytest.raises(ElaborationError):
            parse_module("""
                module m(a, y); input a; output y;
                  assign y = a;
                  assign y = ~a;
                endmodule
            """)

    def test_driven_input_rejected(self):
        with pytest.raises(ElaborationError):
            parse_module("module m(a, y); input a; output y; assign a = 1; assign y = a; endmodule")

    def test_unexpected_token_reports_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_module("module m(a);\n input a;\n garbage here;\n endmodule")
        assert "line 3" in str(excinfo.value)

    def test_state_names_for_registers(self, arbiter2_source):
        module = parse_module(arbiter2_source)
        assert module.state_names == ["gnt0", "gnt1"]

    def test_data_inputs_exclude_clock_and_reset(self, arbiter2_source):
        module = parse_module(arbiter2_source)
        assert module.data_input_names == ["req0", "req1"]


class TestNesting:
    """Deep nesting is a located ``ParseError``, never a ``RecursionError``."""

    @staticmethod
    def source(expr_text):
        return f"module m(input a, output y); assign y = {expr_text}; endmodule"

    def test_sixty_nested_parentheses_elaborate(self):
        module = parse_module(self.source("(" * 60 + "a" + ")" * 60))
        synthesize(module)
        assert module.assigns[0].expr == Ref("a")

    def test_two_hundred_nested_parentheses_elaborate_or_raise_a_located_error(self):
        # About 240 levels fit under the default recursion limit; a deep
        # caller stack leaves fewer.
        text = self.source("(" * 200 + "a" + ")" * 200)
        try:
            synthesize(parse_module(text))
        except ParseError as error:
            assert str(error).startswith("expression nested too deeply at line 1")

    def test_deep_parentheses_raise_a_located_error(self):
        text = self.source("(" * 5000 + "a" + ")" * 5000)
        for parse in (parse_module, lambda source: Parser(source).parse_modules()):
            with pytest.raises(ParseError) as excinfo:
                parse(text)
            assert str(excinfo.value).startswith("expression nested too deeply at line 1")
        assert parse_module(self.source("(a)")).assigns[0].expr == Ref("a")

    def test_long_operator_chain_raises_at_the_operator_past_the_limit(self):
        # The n-th ``+`` builds a node of depth n + 1, so the 64th crosses
        # MAX_EXPRESSION_DEPTH.  The first ``+`` is at column 43 and the
        # terms are four characters apart: column 43 + 4 * 63, not the
        # end of input.
        assert MAX_EXPRESSION_DEPTH == 64
        for terms in (MAX_EXPRESSION_DEPTH + 1, 1500):
            text = self.source(" + ".join(["a"] * terms))
            for parse in (parse_module, lambda source: Parser(source).parse_modules()):
                with pytest.raises(ParseError) as excinfo:
                    parse(text)
                assert str(excinfo.value) == \
                    "expression nested too deeply at line 1, column 295"

    @pytest.mark.parametrize("expr_text, column", [
        ("~" * 100 + "a", 77),               # unary nodes build inside out
        ("{" * 70 + "a" + "}" * 70, 47),
        ("a ? " * 70 + "a" + " : a" * 70, 67),
    ])
    def test_deep_tree_raises_at_the_token_past_the_limit(self, expr_text, column):
        with pytest.raises(ParseError) as excinfo:
            parse_module(self.source(expr_text))
        assert str(excinfo.value) == \
            f"expression nested too deeply at line 1, column {column}"

    @pytest.mark.parametrize("operator", ["+", "<", "&", "*"])
    def test_chain_at_the_limit_elaborates_and_simulates(self, operator):
        terms = " ".join(f"{operator} a" for _ in range(MAX_EXPRESSION_DEPTH - 1))
        module = parse_module(
            "module m(input clk, input [3:0] a, output reg [3:0] y);"
            f" always @(posedge clk) y <= a {terms}; endmodule")
        synthesize(module)
        Simulator(module).run(RandomStimulus(4, seed=1))


class TestNeverLeaks:
    @pytest.mark.parametrize("expr_text", ["\u00b2", "\u0663", "caf\u00e9", "a \u00a7 b"])
    def test_non_ascii_expression_is_a_located_parse_error(self, expr_text):
        with pytest.raises(ParseError) as excinfo:
            parse_module(f"module m(input a, output y); assign y = {expr_text}; endmodule")
        assert excinfo.value.line == 1 and excinfo.value.column is not None

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=30))
    def test_any_text_elaborates_or_raises_an_hdl_error(self, text):
        source = f"module m(input [3:0] a, output [3:0] y); assign y = {text}; endmodule"
        try:
            synthesize(parse_module(source))
        except HdlError:
            pass
