"""Property suite for the tiered engine's strengthening and its depth 0.

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
* **Depth 0 is plain BMC** — :class:`KInductionModelChecker` (the
  ``tiered`` engine) at ``induction_k=0`` must equal
  :class:`BmcModelChecker`: identical verdicts, identical proof
  strengths, identical canonical counterexamples.  ``induction_k=0`` is
  the configuration that replaced the separate ``bmc`` engine, so any
  divergence would change what a plain-BMC run mines.  At larger depths
  the engine must subsume BMC (every BMC verdict kept, every witness
  byte-identical) and stay exact against the explicit oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.unroll import Unroller
from repro.assertions.assertion import Verdict
from repro.boolean.cnf import CnfBuilder
from repro.boolean.expr import and_, not_
from repro.boolean.sat import SatSolver
from repro.designs import DESIGNS
from repro.formal.bmc import BmcModelChecker
from repro.formal.explicit import ExplicitModelChecker
from repro.formal.induction import KInductionModelChecker, state_distinct_expr
from repro.formal.statespace import StateSpace
from repro.hdl.synth import synthesize

# Shared test helpers (pytest puts tests/ and this directory on sys.path).
from generated_designs import random_fsm
from test_incremental_bmc import random_assertions, replay_violates


# ----------------------------------------------------------------------
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
class TestDepthZeroIsPlainBmc:
    def _compare(self, module, assertions):
        bmc = BmcModelChecker(module, bound=6)
        depth0 = KInductionModelChecker(module, bound=6, induction_k=0)
        tiered = KInductionModelChecker(module, bound=6, induction_k=6)
        for assertion in assertions:
            bounded = bmc.check(assertion)
            plain = depth0.check(assertion)
            combined = tiered.check(assertion)
            # Depth 0 ≡ plain BMC, field for field.
            assert plain.verdict is bounded.verdict
            assert plain.proof_strength == bounded.proof_strength
            assert (plain.counterexample is None) \
                == (bounded.counterexample is None)
            if bounded.counterexample is not None:
                assert plain.counterexample.input_vectors \
                    == bounded.counterexample.input_vectors
                assert plain.counterexample.window_start \
                    == bounded.counterexample.window_start
            # ...and deeper induction subsumes the BMC tier it runs first.
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
        engine = KInductionModelChecker(module, bound=6, induction_k=6)
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


# ----------------------------------------------------------------------
class TestStepZeroFirst:
    """The engine asks the depth-0 step before the from-reset search."""

    @staticmethod
    def _from_reset_queries(engine) -> int:
        return sum(context.counters.queries
                   for (from_reset, _), context in engine._contexts.items()
                   if from_reset)

    def test_depth_zero_proof_issues_no_from_reset_query(self):
        proofs = 0
        for design_name in ("arbiter2", "b01", "counter_block"):
            module = DESIGNS[design_name].build()
            engine = KInductionModelChecker(module, bound=6, induction_k=4)
            for assertion in random_assertions(module, 12, seed=101):
                before = self._from_reset_queries(engine)
                check = engine.check(assertion)
                if check.verdict is Verdict.TRUE and check.details["induction_k"] == 0:
                    proofs += 1
                    assert self._from_reset_queries(engine) == before
        assert proofs  # the corpus must exercise the shortcut

    @pytest.mark.parametrize("induction_k", [0, 4])
    def test_refuted_candidate_keeps_the_earliest_window_witness(self, induction_k):
        """The extra step-0 query does not change a refutation: the witness
        is the one plain BMC's search (windows in ascending order) finds."""
        refuted = 0
        for design_name in ("arbiter2", "b01", "b06"):
            module = DESIGNS[design_name].build()
            bmc = BmcModelChecker(module, bound=6)
            engine = KInductionModelChecker(module, bound=6, induction_k=induction_k)
            for assertion in random_assertions(module, 12, seed=11):
                expected = bmc.check(assertion)
                if expected.verdict is not Verdict.FALSE:
                    continue
                refuted += 1
                check = engine.check(assertion)
                assert check.verdict is Verdict.FALSE
                assert check.counterexample.window_start \
                    == expected.counterexample.window_start
                assert check.counterexample.input_vectors \
                    == expected.counterexample.input_vectors
                assert replay_violates(module, assertion, check.counterexample)
        assert refuted
