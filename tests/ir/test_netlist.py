"""Unit tests for the bit-level netlist IR and its optimization passes.

Covers the graph itself (node kinds, operand/user back-edges, structural
hashing), the constant-folding pass on synthetic designs built to fold
(the bundled roster is well-formed and folds nothing — asserted here so a
future regression shows up), and the cone-of-influence pass's closure
property on every bundled design.
"""

from __future__ import annotations

import pytest

from repro.boolean.bitblast import default_bit_name
from repro.designs import DESIGNS
from repro.hdl.parser import parse_module
from repro.hdl.synth import synthesize
from repro.ir import NetlistIR, OptimizedDesign, fold_constants, structural_hash_stats
from repro.ir.coi import BitCone

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


class TestNetlistConstruction:
    def test_node_kinds_and_counts(self, counter_module):
        ir = NetlistIR(synthesize(counter_module))
        module = counter_module
        expected = sum(module.width_of(name) for name in module.input_names
                       if name != module.clock)
        expected += sum(module.width_of(name) for name in ir.synth.registers)
        expected += sum(module.width_of(name) for name in ir.synth.comb_order)
        assert len(ir.nodes) == expected
        kinds = {node.kind for node in ir.nodes.values()}
        assert kinds == {"input", "register", "comb"}
        for node in ir.input_bits:
            assert node.function is None and node.operands == ()

    def test_register_reset_bits(self, counter_module):
        ir = NetlistIR(synthesize(counter_module))
        for name in ir.synth.registers:
            reset_value = counter_module.signal(name).reset_value
            for bit, node in enumerate(ir.bits_of(name)):
                assert node.kind == "register"
                assert node.reset == bool((reset_value >> bit) & 1)

    @pytest.mark.parametrize("design_name", sorted(DESIGNS))
    def test_users_invert_operands(self, design_name):
        """Def-use back-edges are exactly the inverse of the operand lists."""
        ir = NetlistIR(synthesize(DESIGNS[design_name].build()))
        for node in ir.nodes.values():
            for operand in node.operands:
                used = ir.nodes.get(operand)
                if used is not None:
                    assert node.name in used.users
            for user in node.users:
                assert node.name in ir.nodes[user].operands

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

    def test_structural_hash_shares_nodes(self, arbiter4_module):
        ir = NetlistIR(synthesize(arbiter4_module))
        stats = structural_hash_stats(ir)
        assert stats["unique_nodes"] > 0
        # Interning means references >= uniques; real designs share logic.
        assert stats["node_references"] >= stats["unique_nodes"]
        assert stats["sharing_ratio"] >= 1.0


class TestConstantFolding:
    def test_stuck_register_folds(self):
        ir = build_ir(FOLDABLE_SOURCE)
        fold = fold_constants(ir)
        assert fold.constant_registers == {"stuck": 0}
        assert fold.constant_register_bits == {default_bit_name("stuck", 0): False}

    def test_mutual_fixpoint_folds_both(self):
        fold = fold_constants(build_ir(MUTUAL_SOURCE))
        assert fold.constant_registers == {"a": 0, "b": 0}
        assert "live" not in fold.constant_registers

    @pytest.mark.parametrize("design_name", sorted(DESIGNS))
    def test_bundled_designs_fold_nothing(self, design_name):
        """The roster is well-formed: every register is genuinely live.

        If this ever fires, a design gained dead state — fine for the
        passes (that is what they are for) but worth noticing.
        """
        ir = NetlistIR(synthesize(DESIGNS[design_name].build()))
        assert fold_constants(ir).constant_registers == {}

    def test_folded_constant_is_inductive(self):
        """Replay check: the folded register really is stuck at reset."""
        from repro.sim.simulator import Simulator
        import random

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
        ir = build_ir(FOLDABLE_SOURCE)
        cone = BitCone(ir)
        first = cone.cone_of({"out"})
        again = cone.cone_of({"out", "obs"})
        assert first <= again


class TestStats:
    def test_stats_shape(self):
        opt = OptimizedDesign(synthesize(parse_module(FOLDABLE_SOURCE)))
        stats = opt.stats()
        assert stats["folded_registers"] == 1
        assert stats["folded_register_bits"] == 1
        assert stats["register_bits"] == 3  # stuck + track[1:0]
        assert stats["sharing_ratio"] >= 1.0
