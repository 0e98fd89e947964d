"""Unit tests for the bit-level netlist IR and its passes.

Covers the graph itself (one node per driven bit, operands as function
support), the constant-folding pass on synthetic designs built to fold
(the bundled roster is well-formed and folds nothing — asserted here so
a future regression shows up) and on generated FSMs, and the
cone-of-influence slices: closed under use-def on every bundled design,
and equal to an independent reference cone on every design and on
generated FSMs.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings

from repro.boolean.bitblast import BitBlaster, default_bit_name
from repro.designs import DESIGNS
from repro.hdl.parser import parse_module
from repro.hdl.synth import synthesize
from repro.ir import NetlistIR, OptimizedDesign, fold_constants
from repro.sim.simulator import Simulator

# Shared test helper (pytest puts tests/ on sys.path).
from generated_designs import fsms


def recursive_support(expr, memo):
    """Reference support: plain recursion over ``children()``, memoised."""
    if expr not in memo:
        names = {expr.name} if hasattr(expr, "name") else set()
        for child in expr.children():
            names |= recursive_support(child, memo)
        memo[expr] = names
    return memo[expr]


#: A register (``stuck``) that resets to 0 and can only ever be ANDed
#: down, next to a live register (``track``) — the minimal folding case.
FOLDABLE_SOURCE = """
module foldable(clk, rst, en, din, out, obs);
  input clk, rst, en;
  input [1:0] din;
  output out, obs;
  reg stuck;
  reg [1:0] track;
  assign out = stuck | (track == 2);
  assign obs = stuck & en;
  always @(posedge clk) begin
    if (rst) begin
      stuck <= 0;
      track <= 0;
    end else begin
      stuck <= stuck & en;
      track <= din;
    end
  end
endmodule
"""

#: Two registers stuck at reset only *jointly* (a reads b, b reads a):
#: folding must find the greatest fixpoint, not single-register cases.
MUTUAL_SOURCE = """
module mutual(clk, rst, a_in, keep, out);
  input clk, rst, a_in, keep;
  output out;
  reg a, b, live;
  assign out = a | b | live;
  always @(posedge clk) begin
    if (rst) begin
      a <= 0;
      b <= 0;
      live <= 0;
    end else begin
      a <= b & keep;
      b <= a;
      live <= a_in;
    end
  end
endmodule
"""


def build_ir(source):
    return NetlistIR(synthesize(parse_module(source)))


def reference_slicer(module):
    """Independent slice oracle for ``module``.

    Bit functions are blasted afresh, each bit's support comes from
    :func:`recursive_support`, and a request's cone is closed bit by bit
    over the driven bits (inputs other than the clock, registers and
    combinational targets), then lifted to its signals plus the request.
    """
    synth = synthesize(module)
    blaster = BitBlaster(module.width_of)
    memo = {}
    reads = {}  # driven bit -> (its signal, the bits its function reads)
    for name in module.input_names:
        if name != module.clock:
            for bit in range(module.width_of(name)):
                reads[default_bit_name(name, bit)] = (name, set())
    for name, expr in [*synth.next_state.items(), *synth.comb.items()]:
        for bit, function in enumerate(blaster.blast(expr, module.width_of(name))):
            reads[default_bit_name(name, bit)] = (name, recursive_support(function, memo))

    def slice_of(signals):
        cone, stack = set(), [default_bit_name(signal, bit) for signal in signals
                              for bit in range(module.width_of(signal))]
        while stack:
            bit = stack.pop()
            if bit in reads and bit not in cone:
                cone.add(bit)
                stack.extend(reads[bit][1])
        return tuple(sorted(set(signals) | {reads[bit][0] for bit in cone}))

    return slice_of


def assert_slices_match_reference(module):
    """``slice_for`` equals the reference cone for every signal and every
    pair of outputs."""
    opt = OptimizedDesign(synthesize(module))
    reference = reference_slicer(module)
    requests = [(name,) for name in module.signals]
    requests += itertools.combinations(module.output_names, 2)
    for request in requests:
        assert opt.slice_for(request) == reference(request), (
            f"[{module.name}] slice of {request}")


class TestNetlistConstruction:
    def test_node_kinds_and_counts(self, counter_module):
        ir = NetlistIR(synthesize(counter_module))
        module = counter_module
        expected = sum(module.width_of(name) for name in module.input_names
                       if name != module.clock)
        expected += sum(module.width_of(name) for name in ir.synth.registers)
        expected += sum(module.width_of(name) for name in ir.synth.comb_order)
        assert len(ir.nodes) == expected
        for name in module.input_names:
            if name != module.clock:
                for node in ir.bits_of(name):
                    assert node.function is None and node.operands == ()
        for name in [*ir.synth.registers, *ir.synth.comb_order]:
            assert all(node.function is not None for node in ir.bits_of(name))

    def test_register_reset_bits(self, counter_module):
        ir = NetlistIR(synthesize(counter_module))
        for name in ir.synth.registers:
            reset_value = counter_module.signal(name).reset_value
            for bit, node in enumerate(ir.bits_of(name)):
                assert node.reset == bool((reset_value >> bit) & 1)

    @pytest.mark.parametrize("design_name", sorted(DESIGNS))
    def test_operands_are_sorted_function_support(self, design_name):
        """Operand lists are each bit function's support, in name order,
        as a plain recursive walk of the function computes it."""
        ir = NetlistIR(synthesize(DESIGNS[design_name].build()))
        memo = {}
        for node in ir.nodes.values():
            if node.function is None:
                assert node.operands == ()
                continue
            assert node.operands == tuple(sorted(recursive_support(node.function, memo)))


class TestConstantFolding:
    def test_stuck_register_folds(self):
        assert fold_constants(build_ir(FOLDABLE_SOURCE)) == {"stuck": 0}
        opt = OptimizedDesign(synthesize(parse_module(FOLDABLE_SOURCE)))
        assert opt.constant_registers == {"stuck": 0}

    def test_mutual_fixpoint_folds_both(self):
        assert fold_constants(build_ir(MUTUAL_SOURCE)) == {"a": 0, "b": 0}

    @pytest.mark.parametrize("design_name", sorted(DESIGNS))
    def test_bundled_designs_fold_nothing(self, design_name):
        """The roster is well-formed: every register is genuinely live.

        If this ever fires, a design gained dead state — fine for the
        passes (that is what they are for) but worth noticing.
        """
        ir = NetlistIR(synthesize(DESIGNS[design_name].build()))
        assert fold_constants(ir) == {}

    def test_folded_constant_is_inductive(self):
        """Replay check: the folded register really is stuck at reset."""
        module = parse_module(FOLDABLE_SOURCE)
        simulator = Simulator(module)
        simulator.reset()
        rng = random.Random(5)
        for _ in range(50):
            simulator.step({"en": rng.randint(0, 1), "din": rng.randrange(4),
                            "rst": rng.randint(0, 1)})
            assert simulator.peek("stuck") == 0


class TestConeOfInfluence:
    def test_cone_excludes_independent_logic(self):
        synth = synthesize(parse_module(FOLDABLE_SOURCE))
        opt = OptimizedDesign(synth)
        obs_slice = opt.slice_for({"obs"})
        assert "stuck" in obs_slice and "en" in obs_slice
        assert "track" not in obs_slice and "din" not in obs_slice
        out_slice = opt.slice_for({"out"})
        # The cone does not stop at the folded register: its fan-in stays.
        assert {"stuck", "en", "track", "din"} <= set(out_slice)

    def test_slice_is_memoized_and_canonical(self):
        opt = OptimizedDesign(synthesize(parse_module(FOLDABLE_SOURCE)))
        first = opt.slice_for({"obs", "out"})
        second = opt.slice_for({"out", "obs"})
        assert first is second
        assert list(first) == sorted(first)

    def test_slice_registers_preserve_order(self, counter_module):
        opt = OptimizedDesign(synthesize(counter_module))
        slice_key = opt.slice_for({"count", "rollover"})
        registers = opt.slice_registers(slice_key)
        assert registers == [name for name in slice_key
                             if name in opt.synth.next_state]

    @pytest.mark.parametrize("design_name", sorted(DESIGNS))
    def test_slices_are_closed_under_use_def(self, design_name):
        """Everything a sliced bit reads is itself in the slice.

        This is the invariant the sliced unrolling relies on: a signal
        outside the slice is read as constant zero, which is only sound
        if no cone bit actually depends on it.
        """
        module = DESIGNS[design_name].build()
        synth = synthesize(module)
        opt = OptimizedDesign(synth)
        ir = opt.netlist
        for output in module.output_names:
            slice_key = set(opt.slice_for({output}))
            for signal in slice_key:
                if not module.has_signal(signal):
                    continue
                for bit in range(module.width_of(signal)):
                    node = ir.nodes.get(default_bit_name(signal, bit))
                    if node is None:
                        continue
                    for operand in node.operands:
                        used = ir.nodes.get(operand)
                        if used is not None:
                            assert used.signal in slice_key, (
                                f"[{design_name}] slice for '{output}' lost "
                                f"{used.signal} (read by {node.name})")

    def test_cone_memo_reused_across_requests(self):
        """A larger request reuses the seed-bit cones of a smaller one
        and can only grow the slice."""
        opt = OptimizedDesign(synthesize(parse_module(FOLDABLE_SOURCE)))
        first = opt.slice_for({"out"})
        again = opt.slice_for({"out", "obs"})
        assert set(first) <= set(again)
        assert set(opt.slice_for({"obs"})) <= set(again)

    @pytest.mark.parametrize("design_name", sorted(DESIGNS))
    def test_slices_equal_reference_cones(self, design_name):
        assert_slices_match_reference(DESIGNS[design_name].build())

    @pytest.mark.parametrize("source", [FOLDABLE_SOURCE, MUTUAL_SOURCE],
                             ids=["foldable", "mutual"])
    def test_folding_designs_slices_equal_reference_cones(self, source):
        assert_slices_match_reference(parse_module(source))


class TestGeneratedFsms:
    @settings(max_examples=30, deadline=None)
    @given(module=fsms)
    def test_slices_equal_reference_cones(self, module):
        assert_slices_match_reference(module)

    @settings(max_examples=30, deadline=None)
    @given(module=fsms)
    def test_folded_registers_stay_at_reset(self, module):
        """Every register the fold returns holds its reset value over a
        seeded random run with reset low."""
        folded = fold_constants(NetlistIR(synthesize(module)))
        simulator = Simulator(module)
        simulator.reset()
        rng = random.Random(7)
        for _ in range(40):
            simulator.step({name: rng.randrange(1 << module.width_of(name))
                            for name in module.data_input_names}
                           | {module.reset: 0})
            for name, value in folded.items():
                assert simulator.peek(name) == value, name
