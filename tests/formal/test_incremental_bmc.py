"""Differential suite: incremental bounded model checking vs the explicit
oracle.

The incremental BMC engine (one persistent solver context per slice,
queries that assume their goal's literals) must agree with the exact
explicit-state engine wherever it decides, report counterexamples that
replay to a real violation, and keep those counterexamples canonical: a
query answered after a history of unrelated queries reports the same
witness as the same query on a fresh engine.  These tests randomise
assertions over the bundled designs and hold the engine to that
contract, and also cover the batch path through :class:`FormalVerifier`
and the refinement loop.
"""

from __future__ import annotations

import random

import pytest

from repro.assertions.assertion import Assertion, Literal, Verdict
from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.formal.bmc import BmcModelChecker
from repro.formal.checker import FormalVerifier
from repro.formal.explicit import ExplicitModelChecker
from repro.formal.induction import KInductionModelChecker
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus

from engine_agreement import assert_engines_agree


def random_assertions(module, count, seed=11):
    """Window-1/2 candidate assertions like the miner would produce."""
    rng = random.Random(seed)
    single_bit = [name for name in module.data_input_names + module.state_names
                  if module.width_of(name) == 1]
    outputs = [name for name in module.output_names if module.width_of(name) == 1]
    registers = set(module.state_names)
    assertions = []
    while len(assertions) < count:
        window = rng.choice([1, 2])
        antecedent = tuple(
            Literal(name, rng.randint(0, 1), rng.randrange(window))
            for name in rng.sample(single_bit, k=min(2, len(single_bit)))
        )
        output = rng.choice(outputs)
        cycle = window if output in registers else window - 1
        assertions.append(
            Assertion(antecedent, Literal(output, rng.randint(0, 1), cycle), window))
    return assertions


def replay_violates(module, assertion, counterexample):
    simulator = Simulator(module)
    trace = simulator.run_vectors([dict(v) for v in counterexample.input_vectors])
    span = assertion.consequent.cycle + 1
    start = counterexample.window_start
    valuations = {offset: trace.cycle(start + offset) for offset in range(span)}
    return not assertion.holds(valuations)


def assert_matches_oracle(module, assertion, result, oracle):
    """A decided BMC verdict equals the explicit engine's, and a
    counterexample replays to a violation."""
    if result.verdict is Verdict.UNKNOWN:
        return
    assert result.verdict is oracle.check(assertion).verdict, \
        assertion.describe()
    if result.counterexample is not None:
        assert replay_violates(module, assertion, result.counterexample)


class TestIncrementalAgainstExplicit:
    @pytest.mark.parametrize("fixture", ["arbiter2_module", "counter_module",
                                         "handshake_module", "b01_module"])
    def test_verdicts_and_counterexamples_identical(self, fixture, request):
        """Every decided verdict matches the explicit oracle, every witness
        replays, and the full witness — input vectors included — of a
        warm engine equals the one a fresh engine reports per query."""
        module = request.getfixturevalue(fixture)
        assertions = random_assertions(module, 12, seed=23)
        oracle = ExplicitModelChecker(module)
        warm = BmcModelChecker(module, bound=6)
        for assertion in assertions:
            got = warm.check(assertion)
            assert_matches_oracle(module, assertion, got, oracle)
            expected = BmcModelChecker(module, bound=6).check(assertion)
            assert got.verdict is expected.verdict
            if expected.counterexample is not None:
                assert (got.counterexample.window_start
                        == expected.counterexample.window_start)
                assert (got.counterexample.input_vectors
                        == expected.counterexample.input_vectors)

    def test_counterexamples_are_history_independent(self, arbiter2_module):
        """The canonical witness is a pure function of (design, assertion,
        bound): an engine warmed on an unrelated batch reports the same
        vectors as a cold one — the invariant the parallel dispatcher and
        the proof cache are built on."""
        assertions = random_assertions(arbiter2_module, 10, seed=31)
        cold = BmcModelChecker(arbiter2_module, bound=6)
        warm = BmcModelChecker(arbiter2_module, bound=6)
        warm.check_all(random_assertions(arbiter2_module, 8, seed=7))
        for assertion in assertions:
            first = cold.check(assertion)
            second = warm.check(assertion)
            assert first.verdict is second.verdict
            if first.counterexample is not None:
                assert (first.counterexample.input_vectors
                        == second.counterexample.input_vectors)

    def test_check_order_does_not_change_verdicts(self, arbiter2_module):
        """The persistent context is query-order independent: earlier
        queries leave only definitional clauses behind, which can never
        leak into later verdicts."""
        assertions = random_assertions(arbiter2_module, 10, seed=5)
        forward = BmcModelChecker(arbiter2_module, bound=6).check_all(assertions)
        backward = BmcModelChecker(arbiter2_module, bound=6).check_all(assertions[::-1])
        for result, reverse in zip(forward, backward[::-1]):
            assert result.verdict is reverse.verdict

    def test_batch_equals_individual_checks(self, b01_module):
        assertions = random_assertions(b01_module, 8, seed=3)
        batch = BmcModelChecker(b01_module, bound=5).check_all(assertions)
        singles = [BmcModelChecker(b01_module, bound=5).check(a) for a in assertions]
        for batched, single in zip(batch, singles):
            assert batched.verdict is single.verdict

    @pytest.mark.usefixtures("solver_only")
    def test_reuse_counters_grow_with_the_batch(self, arbiter2_module):
        engine = BmcModelChecker(arbiter2_module, bound=6)
        engine.check_all(random_assertions(arbiter2_module, 6, seed=9))
        stats = engine.reuse_stats()
        assert stats["queries"] >= 6
        assert stats["clauses_reused"] > 0
        assert stats["encode_cache_hits"] > 0

    @pytest.mark.usefixtures("solver_only")
    @pytest.mark.parametrize("engine", [BmcModelChecker, KInductionModelChecker])
    @pytest.mark.parametrize("fixture", ["arbiter2_module", "b01_module"])
    def test_second_pass_adds_no_clauses_or_variables(self, engine, fixture,
                                                      request):
        """A query asserts nothing: it assumes its goal's literals, so it
        leaves only definitional clauses behind.  Checking the same batch
        again re-uses every encoding — no new solver clause, no new
        variable — and reproduces every verdict and witness."""
        module = request.getfixturevalue(fixture)
        checker = engine(module, bound=6)
        assertions = random_assertions(module, 10, seed=13)
        first = checker.check_all(assertions)
        before = checker.reuse_stats()
        second = checker.check_all(assertions)
        after = checker.reuse_stats()
        assert after["queries"] > before["queries"]
        assert after["solver_clauses"] == before["solver_clauses"]
        assert after["encoded_variables"] == before["encoded_variables"]
        for result, again in zip(first, second):
            assert result.verdict is again.verdict
            assert ((result.counterexample is None)
                    == (again.counterexample is None))
            if result.counterexample is not None:
                assert (result.counterexample.window_start
                        == again.counterexample.window_start)
                assert (result.counterexample.input_vectors
                        == again.counterexample.input_vectors)


class TestVerifierBatchPath:
    def test_bmc_fresh_engine_rejected(self, arbiter2_module):
        """The retired cold-solver engine name is no longer accepted."""
        with pytest.raises(ValueError, match="bmc-fresh"):
            FormalVerifier(arbiter2_module, engine="bmc-fresh", bound=6)
        verifier = FormalVerifier(arbiter2_module, engine="tiered", bound=6,
                                  induction_k=0)
        oracle = ExplicitModelChecker(arbiter2_module)
        for assertion in random_assertions(arbiter2_module, 4, seed=2):
            assert_matches_oracle(arbiter2_module, assertion,
                                  verifier.check(assertion), oracle)

    @pytest.mark.parametrize("retired", ["bmc", "k-induction"])
    def test_retired_sat_engine_names_rejected(self, arbiter2_module, retired):
        """``bmc`` is ``tiered`` at ``induction_k=0`` and ``k-induction`` is
        ``tiered``; neither name is accepted any more."""
        with pytest.raises(ValueError, match=retired):
            FormalVerifier(arbiter2_module, engine=retired, bound=6)

    def test_check_all_caches_like_sequential_checks(self, arbiter2_module):
        assertions = random_assertions(arbiter2_module, 5, seed=4)
        batch_verifier = FormalVerifier(arbiter2_module, engine="tiered",
                                        bound=6, induction_k=0)
        batch = batch_verifier.check_all(assertions + assertions)
        assert batch_verifier.stats.checks == len(assertions)
        assert batch_verifier.stats.cache_hits == len(assertions)
        again = batch_verifier.check_all(assertions)
        assert batch_verifier.stats.checks == len(assertions)
        assert [r.verdict for r in again] == [r.verdict for r in batch[:len(assertions)]]

    @pytest.mark.usefixtures("solver_only")
    def test_reuse_statistics_surface_in_verifier(self, arbiter2_module):
        verifier = FormalVerifier(arbiter2_module, engine="tiered", bound=6,
                                  induction_k=0)
        verifier.check_all(random_assertions(arbiter2_module, 5, seed=6))
        assert verifier.stats.reuse["queries"] > 0
        payload = verifier.stats.to_json()
        assert payload["reuse"]["clauses_reused"] > 0

    def test_cross_check_incremental_against_explicit(self, arbiter2_module):
        results = assert_engines_agree(arbiter2_module,
                                       random_assertions(arbiter2_module, 6, seed=8),
                                       "tiered", "explicit", bound=6,
                                       induction_k=0)
        for result in results:
            assert result.verdict in (Verdict.TRUE, Verdict.FALSE, Verdict.UNKNOWN)


class TestClosureWithIncrementalEngine:
    @pytest.mark.usefixtures("solver_only")
    def test_refinement_converges_and_stays_sound(self, arbiter2_module):
        """The BMC engine closes the loop, and everything it proves is
        confirmed by the exact explicit engine."""
        explicit = FormalVerifier(arbiter2_module, engine="explicit")
        config = GoldMineConfig(window=2, engine="tiered", induction_k=0)
        closure = CoverageClosure(arbiter2_module, config=config)
        result = closure.run(RandomStimulus(20, seed=3), max_iterations=6)
        assert result.converged
        for assertion in result.all_true_assertions:
            assert explicit.check(assertion).verdict is Verdict.TRUE
        assert result.formal_reuse["queries"] > 0

    def test_formal_reuse_round_trips_through_json(self, arbiter2_module):
        from repro.core.results import ClosureResult

        config = GoldMineConfig(window=2, engine="tiered", induction_k=0)
        closure = CoverageClosure(arbiter2_module, config=config)
        result = closure.run(RandomStimulus(10, seed=1), max_iterations=3)
        restored = ClosureResult.from_json(result.to_json())
        assert restored.formal_reuse == result.formal_reuse
