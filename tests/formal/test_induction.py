"""Property suite for the k-induction engine's strengthening and tiering.

Two properties carry the engine's soundness, and both are checked here
over Hypothesis-driven random small FSMs (state spaces small enough to
enumerate explicitly) as well as the bundled designs:

* **Simple-path strengthening is reachability-preserving** — the
  pairwise-distinct-state constraints the inductive step assumes must
  never exclude a state the design can actually reach.  For every
  reachable state, its BFS-shortest reset path visits pairwise-distinct
  states (a repeat could be excised to shorten it), so the from-reset
  unrolling constrained to "state at cycle d equals s" **and** all
  simple-path pair constraints must stay satisfiable.  If this ever went
  UNSAT the step would be assuming away real behaviour and "proofs"
  could be refutable.
* **Tiering is unobservable** — :class:`TieredModelChecker` must equal
  running plain BMC and :class:`KInductionModelChecker` independently:
  identical verdicts, identical proof strengths, identical canonical
  counterexamples, identical minimal proving k.  The refinement loop
  treats ``tiered`` as a drop-in engine, so any divergence would make
  mined assertion sets depend on which tier answered first.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.analysis.unroll import Unroller
from repro.assertions.assertion import Verdict
from repro.boolean.cnf import CnfBuilder
from repro.boolean.expr import and_, not_
from repro.boolean.sat import SatSolver
from repro.designs import DESIGNS
from repro.formal.bmc import BmcModelChecker
from repro.formal.explicit import ExplicitModelChecker
from repro.formal.induction import (
    KInductionModelChecker,
    TieredModelChecker,
    state_distinct_expr,
)
from repro.formal.statespace import StateSpace
from repro.hdl.parser import parse_module
from repro.hdl.synth import synthesize

# Sibling test module (pytest puts this directory on sys.path).
from test_incremental_bmc import random_assertions, replay_violates


# ----------------------------------------------------------------------
def random_fsm(seed: int):
    """A random small FSM in the repo's Verilog subset.

    1-3 one-bit registers (all exported as outputs so the assertion
    generator has sequential outputs to aim at), 1-2 free inputs, random
    reset values, random depth-2 next-state logic and one combinational
    output — at most 8 states, so the state space enumerates instantly.
    """
    rng = random.Random(seed)
    registers = [f"r{i}" for i in range(rng.randint(1, 3))]
    inputs = [f"i{i}" for i in range(rng.randint(1, 2))]
    names = registers + inputs

    def expression(depth: int) -> str:
        if depth == 0 or rng.random() < 0.4:
            name = rng.choice(names)
            return name if rng.random() < 0.5 else f"~{name}"
        operator = rng.choice(["&", "|", "^"])
        return f"({expression(depth - 1)} {operator} {expression(depth - 1)})"

    updates = "\n".join(
        f"      {register} <= {expression(2)};" for register in registers)
    resets = "\n".join(
        f"      {register} <= {rng.randint(0, 1)};" for register in registers)
    source = f"""
module hfsm(clk, rst, {', '.join(inputs)}, {', '.join(registers)}, y);
  input clk, rst;
  input {', '.join(inputs)};
  output reg {', '.join(registers)};
  output y;

  assign y = {expression(2)};

  always @(posedge clk) begin
    if (rst) begin
{resets}
    end else begin
{updates}
    end
  end
endmodule
"""
    return parse_module(source)


def assert_simple_path_preserves_reachability(module):
    """Core oracle: every explicitly enumerated reachable state stays
    satisfiable under the full set of simple-path pair constraints."""
    space = StateSpace(module)
    unroller = Unroller(module, synthesize(module))
    register_names = space.register_names
    for state in space.explore():
        depth = len(space.path_from_reset(state))
        design = unroller.unroll(max(depth, 1), from_reset=True)
        values = space.state_dict(state)
        equalities = []
        for name in register_names:
            for bit_index, bit in enumerate(design.bits[(name, depth)]):
                if (values[name] >> bit_index) & 1:
                    equalities.append(bit)
                else:
                    equalities.append(not_(bit))
        constraints = [state_distinct_expr(design, register_names, i, j)
                       for i in range(depth + 1)
                       for j in range(i + 1, depth + 1)]
        builder = CnfBuilder()
        builder.assert_expr(and_(*equalities, *constraints))
        verdict = SatSolver(builder.clauses, builder.variable_count).solve()
        assert verdict.satisfiable, (
            f"simple-path constraints exclude reachable state {values} "
            f"of {module.name} at BFS depth {depth}"
        )


# ----------------------------------------------------------------------
class TestSimplePathReachability:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_fsm_states_stay_reachable(self, seed):
        assert_simple_path_preserves_reachability(random_fsm(seed))

    def test_bundled_designs_states_stay_reachable(self):
        for design_name in ("arbiter2", "arbiter4", "b01", "b06"):
            assert_simple_path_preserves_reachability(
                DESIGNS[design_name].build())

    def test_distinct_expr_is_false_without_registers(self):
        """No registers ⇒ the pair constraint is constant FALSE, making
        step queries at k ≥ 1 vacuously UNSAT — and k = 0 still decides
        combinational designs, so TRUE verdicts survive."""
        module = DESIGNS["cex_small"].build()
        engine = KInductionModelChecker(module, bound=4, induction_k=4)
        design = engine._unroller.unroll(2, from_reset=False)
        expression = state_distinct_expr(design, (), 0, 1)
        builder = CnfBuilder()
        builder.assert_expr(expression)
        assert not SatSolver(builder.clauses, builder.variable_count) \
            .solve().satisfiable
        explicit = ExplicitModelChecker(module)
        for assertion in random_assertions(module, 6, seed=101):
            check = engine.check(assertion)
            if check.verdict is Verdict.TRUE:
                assert check.details["induction_k"] == 0
                assert explicit.check(assertion).verdict is Verdict.TRUE


# ----------------------------------------------------------------------
class TestTieringIsUnobservable:
    def _compare(self, module, assertions):
        bmc = BmcModelChecker(module, bound=6)
        induction = KInductionModelChecker(module, bound=6, induction_k=6)
        tiered = TieredModelChecker(module, bound=6, induction_k=6)
        for assertion in assertions:
            bounded = bmc.check(assertion)
            independent = induction.check(assertion)
            combined = tiered.check(assertion)
            # Tiered ≡ k-induction, field for field.
            assert combined.verdict is independent.verdict
            assert combined.proof_strength == independent.proof_strength
            if combined.verdict is Verdict.TRUE:
                assert combined.details["induction_k"] \
                    == independent.details["induction_k"]
            if combined.counterexample is not None:
                assert combined.counterexample.input_vectors \
                    == independent.counterexample.input_vectors
                assert combined.counterexample.window_start \
                    == independent.counterexample.window_start
            # ...and tiered subsumes the BMC tier it runs first.
            if bounded.verdict is Verdict.FALSE:
                assert combined.verdict is Verdict.FALSE
                assert combined.counterexample.input_vectors \
                    == bounded.counterexample.input_vectors
            if bounded.verdict is Verdict.TRUE:
                assert combined.verdict is Verdict.TRUE
            if combined.counterexample is not None:
                assert replay_violates(module, assertion,
                                       combined.counterexample)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_fsm_verdicts_identical(self, seed):
        module = random_fsm(seed)
        self._compare(module, random_assertions(module, 5, seed=seed + 1))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_fsm_proofs_are_exact(self, seed):
        """On enumerable FSMs the explicit oracle must confirm every
        unbounded proof and every falsification the engine produces."""
        module = random_fsm(seed)
        explicit = ExplicitModelChecker(module)
        engine = TieredModelChecker(module, bound=6, induction_k=6)
        for assertion in random_assertions(module, 5, seed=seed + 2):
            check = engine.check(assertion)
            if check.verdict is Verdict.TRUE:
                assert explicit.check(assertion).verdict is Verdict.TRUE
            elif check.verdict is Verdict.FALSE:
                assert explicit.check(assertion).verdict is Verdict.FALSE

    def test_bundled_design_verdicts_identical(self):
        for design_name in ("arbiter2", "b01"):
            module = DESIGNS[design_name].build()
            self._compare(module, random_assertions(module, 10, seed=101))
