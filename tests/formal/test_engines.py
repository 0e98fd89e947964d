"""Tests for the formal verification engines.

Includes cross-checks of the three back ends against each other and
against brute-force simulation, plus counterexample-replay validation —
the key soundness property the refinement loop relies on.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.assertions.assertion import Assertion, Literal, Verdict
from repro.formal.bdd_engine import BddModelChecker
from repro.formal.bmc import BmcModelChecker
from repro.formal.checker import FormalVerifier
from repro.formal.explicit import ExplicitModelChecker
from repro.formal.induction import KInductionModelChecker
from repro.formal.result import FormalEngineError
from repro.formal.statespace import StateSpace
from repro.sim.simulator import Simulator

from engine_agreement import assert_engines_agree

# Assertions about the paper's arbiter whose verdicts are known from Section 6.
A0_FALSE = Assertion((Literal("req0", 0, 0),), Literal("gnt0", 1, 1), 1, "A0")
A1_FALSE = Assertion((Literal("req0", 1, 0),), Literal("gnt0", 0, 1), 1, "A1")
A2_TRUE = Assertion((Literal("req0", 0, 0), Literal("req0", 0, 1)),
                    Literal("gnt0", 0, 2), 2, "A2")
A3_TRUE = Assertion((Literal("req0", 0, 0), Literal("req0", 1, 1)),
                    Literal("gnt0", 1, 2), 2, "A3")
A4_FALSE = Assertion((Literal("req0", 1, 0), Literal("req1", 0, 1)),
                     Literal("gnt0", 1, 2), 2, "A4")

KNOWN = [(A0_FALSE, Verdict.FALSE), (A1_FALSE, Verdict.FALSE),
         (A2_TRUE, Verdict.TRUE), (A3_TRUE, Verdict.TRUE), (A4_FALSE, Verdict.FALSE)]


class TestStateSpace:
    def test_arbiter_reachable_states(self, arbiter2_module):
        space = StateSpace(arbiter2_module)
        states = space.explore()
        # gnt0/gnt1 are never 1 simultaneously: only 3 of 4 encodings reachable.
        assert len(states) == 3
        assert (1, 1) not in states

    def test_reset_state_first(self, arbiter2_module):
        space = StateSpace(arbiter2_module)
        assert space.explore()[0] == space.reset_state == (0, 0)

    def test_path_from_reset_replays_to_state(self, arbiter4_module):
        space = StateSpace(arbiter4_module)
        simulator = Simulator(arbiter4_module)
        for state in space.explore():
            path = space.path_from_reset(state)
            simulator.reset()
            for vector in path:
                simulator.step(vector)
            reached = tuple(simulator.peek(name) for name in space.register_names)
            assert reached == state

    def test_path_for_unreachable_state_raises(self, arbiter2_module):
        space = StateSpace(arbiter2_module)
        space.explore()
        with pytest.raises(KeyError):
            space.path_from_reset((1, 1))

    def test_input_combination_limit_enforced(self, wb_module):
        with pytest.raises(FormalEngineError):
            StateSpace(wb_module, max_input_combinations=4)

class TestKnownVerdicts:
    @pytest.mark.parametrize("assertion,expected", KNOWN,
                             ids=[a.name for a, _ in KNOWN])
    def test_explicit_engine(self, arbiter2_module, assertion, expected):
        assert ExplicitModelChecker(arbiter2_module).check(assertion).verdict is expected

    @pytest.mark.parametrize("assertion,expected", KNOWN,
                             ids=[a.name for a, _ in KNOWN])
    def test_bdd_engine(self, arbiter2_module, assertion, expected):
        assert BddModelChecker(arbiter2_module).check(assertion).verdict is expected

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("assertion,expected", KNOWN,
                             ids=[a.name for a, _ in KNOWN])
    def test_bmc_engine(self, arbiter2_module, assertion, expected, warm):
        """Known verdicts on a cold engine and on one whose persistent
        contexts already answered every other known query."""
        engine = BmcModelChecker(arbiter2_module, bound=6)
        if warm:
            engine.check_all([other for other, _ in KNOWN if other is not assertion])
        verdict = engine.check(assertion).verdict
        if verdict is Verdict.UNKNOWN:
            pytest.skip("induction inconclusive (allowed for the bounded engine)")
        assert verdict is expected


class TestCounterexamples:
    def _replay_violates(self, module, assertion, counterexample):
        simulator = Simulator(module)
        trace = simulator.run_vectors([dict(v) for v in counterexample.input_vectors])
        span = assertion.consequent.cycle + 1
        start = counterexample.window_start
        valuations = {offset: trace.cycle(start + offset) for offset in range(span)}
        return not assertion.holds(valuations)

    @pytest.mark.parametrize("engine_factory", [
        ExplicitModelChecker,
        lambda m: KInductionModelChecker(m, bound=6, induction_k=4),
        BddModelChecker,
    ], ids=["explicit", "tiered", "bdd"])
    def test_counterexamples_reproduce_violation(self, arbiter2_module, engine_factory):
        engine = engine_factory(arbiter2_module)
        for assertion in (A0_FALSE, A1_FALSE, A4_FALSE):
            result = engine.check(assertion)
            assert result.is_false
            assert self._replay_violates(arbiter2_module, assertion, result.counterexample)

    def test_counterexample_reports_new_variables(self, arbiter2_module):
        result = ExplicitModelChecker(arbiter2_module).check(A0_FALSE)
        # The witness always assigns every design input, so it introduces at
        # least one variable beyond the assertion's own support (Definition 5).
        assert result.counterexample.new_variables()

    def test_counterexample_starts_from_reset(self, fetch_module):
        # An assertion that is false only in a non-initial state forces a
        # multi-cycle prefix from reset.
        assertion = Assertion((Literal("icache_rdvl_i", 1, 0),),
                              Literal("valid", 1, 1), 1, "needs_pending")
        result = ExplicitModelChecker(fetch_module).check(assertion)
        assert result.is_false
        assert self._replay_violates(fetch_module, assertion, result.counterexample)

class TestCrossEngineAgreement:
    @pytest.mark.parametrize("fixture", ["arbiter2_module", "counter_module",
                                         "handshake_module", "b01_module"])
    def test_engines_agree_on_random_assertions(self, fixture, request):
        module = request.getfixturevalue(fixture)
        rng = random.Random(17)
        explicit = ExplicitModelChecker(module)
        bdd = BddModelChecker(module)
        single_bit = [name for name in module.data_input_names + module.state_names
                      if module.width_of(name) == 1]
        outputs = [name for name in module.output_names if module.width_of(name) == 1]
        registers = set(module.state_names)
        for _ in range(10):
            window = rng.choice([1, 2])
            antecedent = tuple(
                Literal(name, rng.randint(0, 1), rng.randrange(window))
                for name in rng.sample(single_bit, k=min(2, len(single_bit)))
            )
            output = rng.choice(outputs)
            cycle = window if output in registers else window - 1
            assertion = Assertion(antecedent, Literal(output, rng.randint(0, 1), cycle), window)
            assert explicit.check(assertion).verdict is bdd.check(assertion).verdict

    def test_explicit_matches_exhaustive_simulation(self, arbiter2_module):
        """The explicit verdict equals brute-force checking over all reachable
        behaviour for a window-1 assertion."""
        assertion = Assertion((Literal("req0", 1, 0), Literal("req1", 1, 0)),
                              Literal("gnt1", 1, 1), 1)
        verdict = ExplicitModelChecker(arbiter2_module).check(assertion).verdict
        simulator = Simulator(arbiter2_module)
        violated = False
        for sequence in itertools.product(range(4), repeat=4):
            vectors = [{"rst": 0, "req0": v & 1, "req1": (v >> 1) & 1} for v in sequence]
            trace = simulator.run_vectors(vectors)
            for start in range(len(trace) - 1):
                window = {0: trace.cycle(start), 1: trace.cycle(start + 1)}
                if not assertion.holds(window):
                    violated = True
        assert (verdict is Verdict.FALSE) == violated


class TestFormalVerifierFacade:
    def test_caching(self, arbiter2_module):
        verifier = FormalVerifier(arbiter2_module)
        verifier.check(A2_TRUE)
        verifier.check(A2_TRUE)
        assert verifier.stats.checks == 1
        assert verifier.stats.cache_hits == 1

    def test_statistics_accumulate(self, arbiter2_module):
        verifier = FormalVerifier(arbiter2_module)
        for assertion, _ in KNOWN:
            verifier.check(assertion)
        assert verifier.stats.checks == len(KNOWN)
        assert verifier.stats.true_count == 2
        assert verifier.stats.false_count == 3
        assert verifier.stats.average_seconds >= 0.0

    def test_unknown_engine_rejected(self, arbiter2_module):
        with pytest.raises(ValueError):
            FormalVerifier(arbiter2_module, engine="magic")

    def test_cross_check_mode(self, arbiter2_module):
        assertions = [assertion for assertion, _ in KNOWN]
        results = assert_engines_agree(arbiter2_module, assertions, "explicit", "bdd")
        assert [result.verdict for result in results] == [expected for _, expected in KNOWN]

    def test_bdd_engine_selectable(self, arbiter2_module):
        verifier = FormalVerifier(arbiter2_module, engine="bdd")
        assert verifier.check(A3_TRUE).is_true
