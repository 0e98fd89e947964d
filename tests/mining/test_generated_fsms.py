"""Generated-design properties of the mine → check → replay loop.

On random small FSMs (:data:`generated_designs.fsms`):

* **Miner differential** — the columnar A-Miner and the row-wise
  reference build node-for-node identical trees and emit identical
  candidate lists on random traces, fresh and under incremental
  refinement.
* **Closure soundness** — every assertion the ``tiered`` closure
  accepts is TRUE under the exact :class:`ExplicitModelChecker`, and
  every counterexample the engine returns for a refuted candidate
  replays on the :class:`Simulator` to a violation of that candidate in
  the window starting at its ``window_start``.  The FSMs have at most 8
  states, so a bounded proof at the default bound covers every
  reachable state and "accepted" means "true".
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.assertions.assertion import Verdict
from repro.core.config import GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.formal.explicit import ExplicitModelChecker
from repro.mining import (
    ColumnarDataset,
    ColumnarDecisionTree,
    ColumnarIncrementalDecisionTree,
    DecisionTree,
    IncrementalDecisionTree,
    MiningDataset,
)
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus

from generated_designs import fsms
from tree_diff import diff_trees


@settings(max_examples=40, deadline=None)
@given(module=fsms, window=st.integers(1, 2), seed=st.integers(0, 10_000),
       data=st.data())
def test_columnar_and_rowwise_miners_agree(module, window, seed, data):
    output = data.draw(st.sampled_from(module.output_names), label="output")
    simulator = Simulator(module)
    trace = simulator.run(RandomStimulus(12, seed=seed))
    rowwise = MiningDataset(module, output, window=window)
    columnar = ColumnarDataset(module, output, window=window)
    rowwise.add_trace(trace)
    columnar.add_trace(trace)

    row_tree, col_tree = DecisionTree(rowwise), ColumnarDecisionTree(columnar)
    assert diff_trees(row_tree.build(), col_tree.build()) == []
    assert row_tree.candidate_assertions() == col_tree.candidate_assertions()

    row_tree = IncrementalDecisionTree(rowwise)
    col_tree = ColumnarIncrementalDecisionTree(columnar)
    row_tree.build()
    col_tree.build()
    for round_index in range(2):
        extra = simulator.run(RandomStimulus(4 + window, seed=seed + round_index + 1))
        assert len(row_tree.add_trace(extra)) == len(col_tree.add_trace(extra))
        assert diff_trees(row_tree.root, col_tree.root) == []
        assert row_tree.candidate_assertions() == col_tree.candidate_assertions()


def replay_violates(module, counterexample) -> bool:
    """The counterexample's inputs, simulated from reset, violate its
    assertion in the window starting at ``window_start``."""
    assertion = counterexample.assertion
    trace = Simulator(module).run_vectors(
        [dict(vector) for vector in counterexample.input_vectors])
    start = counterexample.window_start
    valuations = {offset: trace.cycle(start + offset)
                  for offset in range(assertion.consequent.cycle + 1)}
    return not assertion.holds(valuations)


@settings(max_examples=30, deadline=None)
@given(module=fsms, window=st.integers(1, 2), induction_k=st.sampled_from((0, 4)),
       seed_cycles=st.sampled_from((0, 6)), seed=st.integers(0, 10_000))
def test_tiered_closure_is_sound(module, window, induction_k, seed_cycles, seed):
    closure = CoverageClosure(module, config=GoldMineConfig(
        window=window, engine="tiered", induction_k=induction_k))
    checks = []
    check_all = closure.verifier.check_all

    def recording_check_all(assertions):
        results = check_all(assertions)
        checks.extend(results)
        return results

    closure.verifier.check_all = recording_check_all
    stimulus = RandomStimulus(seed_cycles, seed=seed) if seed_cycles else None
    result = closure.run(stimulus)

    oracle = ExplicitModelChecker(module)
    for assertions in result.true_assertions.values():
        for assertion in assertions:
            assert oracle.check(assertion).verdict is Verdict.TRUE, \
                assertion.describe()
    for check in checks:
        if check.verdict is Verdict.FALSE and check.counterexample is not None:
            assert check.counterexample.assertion == check.assertion
            assert replay_violates(module, check.counterexample), \
                check.assertion.describe()
