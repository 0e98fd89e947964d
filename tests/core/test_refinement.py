"""Tests for the counterexample-guided refinement loop (the paper's core)."""

from __future__ import annotations

import pytest

from repro.assertions.evaluate import assertion_holds_on_trace
from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.core.results import flatten_test_suite
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus


def run_arbiter(seed_vectors, window=2, outputs=("gnt0",), **kwargs):
    from repro.designs import arbiter2

    module = arbiter2()
    closure = CoverageClosure(module, outputs=list(outputs),
                              config=GoldMineConfig(window=window), **kwargs)
    return module, closure, closure.run(seed_vectors)


class TestConvergence:
    def test_directed_seed_converges_to_full_coverage(self, arbiter2_seed):
        module, closure, result = run_arbiter(arbiter2_seed)
        assert result.converged
        assert result.input_space_coverage("gnt0") == pytest.approx(1.0)

    def test_zero_seed_converges(self):
        module, closure, result = run_arbiter(None, window=1)
        assert result.converged
        assert result.input_space_coverage("gnt0") == pytest.approx(1.0)
        # The very first candidate is the "output always 0" default.
        first = result.iterations[0]
        assert first.candidates_checked == 1

    def test_all_outputs_converge(self):
        module, closure, result = run_arbiter(None, window=1, outputs=("gnt0", "gnt1"))
        assert result.converged
        assert set(result.true_assertions) == {"gnt0", "gnt1"}

    def test_iteration_budget_respected(self, arbiter2_seed):
        from repro.designs import arbiter2

        closure = CoverageClosure(arbiter2(), outputs=["gnt0"],
                                  config=GoldMineConfig(window=2, max_iterations=1))
        result = closure.run(arbiter2_seed, max_iterations=1)
        assert result.iteration_count <= 1

    @pytest.mark.parametrize("design,output", [
        ("cex_small", "z"), ("b01", "outp"), ("counter_block", "rollover"),
        ("handshake_block", "out_valid"), ("wbstage", "wb_valid"),
    ])
    def test_other_designs_reach_closure(self, design, output):
        from repro.designs import info

        meta = info(design)
        module = meta.build()
        closure = CoverageClosure(module, outputs=[output],
                                  config=GoldMineConfig(window=meta.window))
        result = closure.run(RandomStimulus(10, seed=1))
        assert result.converged
        assert result.input_space_coverage(closure.contexts[0].label) == pytest.approx(1.0)


class TestSoundness:
    def test_all_reported_assertions_are_true(self, arbiter2_seed):
        module, closure, result = run_arbiter(arbiter2_seed)
        from repro.formal.explicit import ExplicitModelChecker

        checker = ExplicitModelChecker(module)
        for assertion in result.assertions_for("gnt0"):
            assert checker.check(assertion).is_true

    def test_assertions_hold_on_refined_suite_simulation(self, arbiter2_seed):
        module, closure, result = run_arbiter(arbiter2_seed)
        simulator = Simulator(module)
        for sequence in result.test_suite:
            trace = simulator.run_vectors(sequence)
            for assertion in result.assertions_for("gnt0"):
                assert assertion_holds_on_trace(assertion, trace)

    def test_failed_assertion_never_regenerated(self, arbiter2_seed):
        module, closure, result = run_arbiter(arbiter2_seed)
        context = closure.context_for("gnt0")
        final_candidates = set(context.tree.candidate_assertions())
        assert not (context.failed & final_candidates)

    def test_final_tree_is_final(self, arbiter2_seed):
        module, closure, result = run_arbiter(arbiter2_seed)
        context = closure.context_for("gnt0")
        assert context.converged
        assert context.tree.is_final(context.proven)

    def test_assertion_antecedents_are_disjoint(self, arbiter2_seed):
        """Leaves of one tree are mutually exclusive regions (coverage adds up)."""
        module, closure, result = run_arbiter(arbiter2_seed)
        assertions = result.assertions_for("gnt0")
        for index, first in enumerate(assertions):
            for second in assertions[index + 1:]:
                values = {(l.signal, l.cycle, l.bit): l.value
                          for l in first.antecedent}
                conflict = any(
                    values.get((l.signal, l.cycle, l.bit), l.value) != l.value
                    for l in second.antecedent)
                assert conflict, "two leaf assertions overlap"


class TestMonotonicity:
    def test_input_space_coverage_never_decreases(self, arbiter2_seed):
        module, closure, result = run_arbiter(arbiter2_seed)
        series = result.coverage_by_iteration("gnt0")
        assert all(later >= earlier - 1e-12 for earlier, later in zip(series, series[1:]))

    def test_test_suite_only_grows(self, arbiter2_seed):
        module, closure, result = run_arbiter(arbiter2_seed)
        cycles = [record.cumulative_test_cycles for record in result.iterations]
        assert cycles == sorted(cycles)

    def test_counterexamples_add_new_rows(self):
        module, closure, result = run_arbiter(None, window=1)
        # Each iteration with counterexamples must add test cycles.
        for earlier, later in zip(result.iterations, result.iterations[1:]):
            if earlier.counterexamples:
                assert later.cumulative_test_cycles > earlier.cumulative_test_cycles


class TestResults:
    def test_summary_table_renders(self, arbiter2_seed):
        module, closure, result = run_arbiter(arbiter2_seed)
        table = result.summary_table()
        assert "iter" in table and str(result.iteration_count) in table

    def test_flatten_test_suite(self, arbiter2_seed):
        module, closure, result = run_arbiter(arbiter2_seed)
        flat = flatten_test_suite(result.test_suite)
        assert len(flat) == result.total_test_cycles()

    def test_formal_statistics_exposed(self, arbiter2_seed):
        module, closure, result = run_arbiter(arbiter2_seed)
        assert result.formal_checks > 0
        assert result.formal_seconds >= 0.0

    def test_context_lookup(self, arbiter2_seed):
        module, closure, result = run_arbiter(arbiter2_seed)
        assert closure.context_for("gnt0").output == "gnt0"
        with pytest.raises(KeyError):
            closure.context_for("nope")

    def test_rebuild_trees_variant_also_converges(self, arbiter2_seed):
        module, closure, result = run_arbiter(arbiter2_seed, rebuild_trees=True)
        assert result.converged
        assert result.input_space_coverage("gnt0") == pytest.approx(1.0)

    def test_multibit_output_context_labels(self):
        from repro.designs import counter_block

        module = counter_block()
        closure = CoverageClosure(module, outputs=["count"],
                                  config=GoldMineConfig(window=1, max_iterations=12))
        result = closure.run(RandomStimulus(12, seed=2))
        assert {"count[0]", "count[1]", "count[2]"} == set(result.true_assertions)
        assert result.converged

    def test_no_hidden_counterexample_state_left_behind(self, arbiter2_seed):
        """Counterexamples flow through return values now; the closure must
        not grow a stale per-iteration attribute."""
        module, closure, result = run_arbiter(arbiter2_seed)
        assert not hasattr(closure, "_latest_counterexamples")


class TestCounterexampleDedup:
    """Key stability of the per-iteration counterexample dedup."""

    @staticmethod
    def make_counterexample(vectors, value=1):
        from repro.assertions.assertion import Assertion, Literal
        from repro.formal.result import Counterexample

        assertion = Assertion((Literal("req0", 1, 0),), Literal("gnt0", value, 1),
                              window=1)
        return Counterexample(input_vectors=tuple(vectors), window_start=0,
                              assertion=assertion)

    def test_identical_sequences_collapse_to_first_witness(self):
        vectors = [{"req0": 1, "req1": 0}, {"req0": 0, "req1": 1}]
        first = self.make_counterexample(vectors, value=1)
        second = self.make_counterexample(vectors, value=0)
        pending = CoverageClosure._pending_counterexamples([first, second])
        assert pending == [first]

    def test_key_ignores_vector_insertion_order(self):
        forward = self.make_counterexample([{"req0": 1, "req1": 0}])
        backward = self.make_counterexample([{"req1": 0, "req0": 1}])
        assert CoverageClosure._pending_counterexamples([forward, backward]) \
            == [forward]

    def test_different_sequences_all_survive_in_order(self):
        first = self.make_counterexample([{"req0": 1, "req1": 0}])
        second = self.make_counterexample([{"req0": 0, "req1": 1}])
        third = self.make_counterexample([{"req0": 1, "req1": 1}])
        pending = CoverageClosure._pending_counterexamples([first, second, third])
        assert pending == [first, second, third]

    def test_longer_sequences_do_not_collide_with_prefixes(self):
        short = self.make_counterexample([{"req0": 1, "req1": 0}])
        longer = self.make_counterexample([{"req0": 1, "req1": 0},
                                           {"req0": 1, "req1": 0}])
        assert CoverageClosure._pending_counterexamples([short, longer]) \
            == [short, longer]

    def test_empty_iteration_yields_no_pending(self):
        assert CoverageClosure._pending_counterexamples([]) == []
