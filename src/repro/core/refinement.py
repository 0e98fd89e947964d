"""Counterexample-guided iterative refinement (the paper's contribution).

The :class:`CoverageClosure` loop implements Section 3 / Figure 3:

1. Simulate the seed stimulus (directed, random, or nothing at all) and
   build one incremental decision tree per target output over the windowed
   trace data.
2. Read 100 %-confidence candidate assertions off the pure leaves and
   model-check each one.
3. Every failing assertion yields a counterexample input sequence from
   reset.  Simulating it (``Ctx_simulation`` in Figure 4) produces new
   trace rows that are folded into the datasets; the incremental trees
   re-split exactly the leaves whose assertions were refuted.
4. Repeat until every leaf assertion is formally true (the *final decision
   tree*, Definition 7) for every output, or the iteration budget is
   exhausted.

Iteration 0 (steps 1-2 before any feedback) is exactly one GoldMine pass
of the original tool (Figure 1): ``run(seed, max_iterations=0)``.

The run's tangible outputs — the true assertions, the refined test suite
(seed + every counterexample pattern), per-iteration coverage — are
returned as a :class:`repro.core.results.ClosureResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.assertions.assertion import Assertion, combined_input_space_coverage
from repro.core.config import GoldMineConfig
from repro.core.goldmine import GoldMine
from repro.core.results import ClosureResult, IterationRecord, TestSequence
from repro.formal.result import PROOF_BOUNDED, Counterexample
from repro.hdl.module import Module
from repro.mining.columnar import ColumnarIncrementalDecisionTree
from repro.sim.simulator import Simulator
from repro.sim.stimulus import Stimulus


@dataclass
class OutputContext:
    """Per-output mining state carried across iterations.

    ``tree`` is the output's
    :class:`~repro.mining.columnar.ColumnarIncrementalDecisionTree`.
    ``proven`` lists the accepted assertions in proof order and
    ``proven_set`` holds the same assertions for membership tests; add
    them through :meth:`prove` so the two stay in step.
    """

    output: str
    bit: int | None
    label: str
    tree: ColumnarIncrementalDecisionTree
    proven: list[Assertion] = field(default_factory=list)
    proven_set: set[Assertion] = field(default_factory=set)
    failed: set[Assertion] = field(default_factory=set)
    #: True when every candidate at the leaves ended proven in the last
    #: check (set by :meth:`CoverageClosure._check_all`).
    converged: bool = False

    def prove(self, assertion: Assertion) -> None:
        self.proven.append(assertion)
        self.proven_set.add(assertion)

    def input_space_coverage(self) -> float:
        return combined_input_space_coverage(self.proven)


class CoverageClosure:
    """The counterexample-guided refinement loop.

    The seed and every counterexample are replayed into the mining
    datasets on the compiled :class:`~repro.sim.simulator.Simulator`, one
    sequence at a time.
    """

    def __init__(self, module: Module, outputs: Sequence[str] | None = None,
                 config: GoldMineConfig | None = None,
                 rebuild_trees: bool = False):
        self.module = module
        self.config = config or GoldMineConfig()
        self.engine = GoldMine(module, self.config)
        self.verifier = self.engine.verifier
        #: Ablation switch: rebuild every decision tree from scratch at each
        #: iteration instead of growing it incrementally (Section 3 argues
        #: for the incremental variant; E10 quantifies the difference).
        self.rebuild_trees = rebuild_trees
        self.contexts: list[OutputContext] = []
        for output, bit in self.engine.target_outputs(outputs):
            dataset = self.engine.build_dataset(output, bit)
            tree = ColumnarIncrementalDecisionTree(dataset, self.config.max_depth)
            self.contexts.append(
                OutputContext(output, bit, self.engine.target_label(output, bit), tree)
            )
        self._simulator = Simulator(module)

    # ------------------------------------------------------------------
    # seed handling
    # ------------------------------------------------------------------
    def _materialise(self, stimulus: Stimulus) -> TestSequence:
        return [dict(vector) for vector in stimulus.cycles(self.module)]

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, seed: Stimulus | Sequence[Mapping[str, int]] | None = None,
            max_iterations: int | None = None) -> ClosureResult:
        """Run refinement to convergence (or the iteration budget).

        ``seed`` may be a stimulus object, an explicit list of per-cycle
        input vectors, or ``None`` for the zero-initial-patterns limit
        study of Section 7.2.
        """
        budget = max_iterations if max_iterations is not None else self.config.max_iterations
        result = ClosureResult(
            module_name=self.module.name,
            outputs=[context.label for context in self.contexts],
            converged=False,
        )

        # Seed the datasets and the test suite.
        if seed is not None:
            vectors = self._materialise(seed) if isinstance(seed, Stimulus) else \
                [dict(v) for v in seed]
            if vectors:
                result.test_suite.append(vectors)
                seed_trace = self._simulator.run_vectors(vectors)
                for context in self.contexts:
                    context.tree.dataset.add_trace(seed_trace)
        for context in self.contexts:
            context.tree.build()

        try:
            # Iteration 0: candidates from the seed data alone.
            record, counterexamples = self._check_all(0, result)
            result.iterations.append(record)
            pending = self._pending_counterexamples(counterexamples)

            iteration = 0
            while pending and iteration < budget:
                iteration += 1
                self._absorb_counterexamples(pending, result)
                record, counterexamples = self._check_all(iteration, result)
                result.iterations.append(record)
                pending = self._pending_counterexamples(counterexamples)
        finally:
            # Release formal worker processes and flush the proof cache;
            # everything restarts lazily if this closure runs again.
            self.verifier.close()

        result.converged = not pending and all(context.converged for context in self.contexts)
        for context in self.contexts:
            result.true_assertions[context.label] = list(context.proven)
        result.formal_checks = self.verifier.stats.checks
        result.formal_seconds = self.verifier.stats.total_seconds
        result.formal_reuse = dict(self.verifier.stats.reuse)
        return result

    # ------------------------------------------------------------------
    def _check_all(self, iteration: int, result: ClosureResult
                   ) -> tuple[IterationRecord, list[Counterexample]]:
        """Mine + check candidates for every output.

        Returns the iteration record plus the iteration's counterexamples
        in verdict order — as a value, not hidden instance state, so the
        caller can never observe a stale list from an earlier iteration.

        All unresolved candidates of one output are verified as a single
        batch through :meth:`FormalVerifier.check_all`: the incremental
        SAT engine amortises its per-design encoding and learned clauses
        over the whole candidate set, and a parallel verifier
        (``config.formal_workers > 1``) fans the batch out across its
        persistent worker processes in one wave.
        """
        record = IterationRecord(iteration=iteration)
        counterexamples: list[Counterexample] = []
        for context in self.contexts:
            if self.rebuild_trees and iteration > 0:
                context.tree.build()
            candidates = context.tree.candidate_assertions()
            proven_set = context.proven_set
            unproven = [(index, candidate) for index, candidate in enumerate(candidates)
                        if candidate not in proven_set]
            unresolved = [(index, candidate) for index, candidate in unproven
                          if candidate not in context.failed]
            checks = self.verifier.check_all([candidate for _, candidate in unresolved])
            # Every candidate ends proven iff none was refuted in an
            # earlier iteration and every one checked now holds.
            context.converged = (len(unresolved) == len(unproven)
                                 and all(check.is_true for check in checks))
            for (index, candidate), check in zip(unresolved, checks):
                named = candidate.with_name(f"{context.label}_i{iteration}_a{index}")
                record.candidates_checked += 1
                if check.is_true:
                    context.prove(named)
                    record.new_true_assertions.append(named)
                    # Accepted assertions carry their proof strength into
                    # the result JSON; a TRUE without one (defensive only)
                    # is demoted to bounded, never silently upgraded.
                    result.proof_strength[named.name] = \
                        check.proof_strength or PROOF_BOUNDED
                elif check.is_false:
                    context.failed.add(candidate)
                    record.failed_assertions.append(named)
                    if check.counterexample is not None:
                        counterexamples.append(check.counterexample)
                else:
                    # Unknown verdicts (possible with the bounded engine) are
                    # treated conservatively: not proven, no counterexample.
                    record.failed_assertions.append(named)
            record.input_space_coverage[context.label] = context.input_space_coverage()
        record.counterexamples = len(counterexamples)
        record.cumulative_true_assertions = sum(len(c.proven) for c in self.contexts)
        record.cumulative_test_cycles = sum(len(seq) for seq in result.test_suite)
        return record, counterexamples

    @staticmethod
    def _pending_counterexamples(counterexamples: Sequence[Counterexample]
                                 ) -> list[Counterexample]:
        """Deduplicate one iteration's counterexamples by input sequence.

        Several refuted assertions can share one witness (the batching
        optimisation the paper suggests in Section 7).  The dedup key is
        the per-cycle input assignments with each vector's items sorted by
        signal name, so it is stable under dict insertion order; the first
        counterexample with a given sequence wins, keeping the result
        deterministic in verdict order.
        """
        unique: dict[tuple, Counterexample] = {}
        for counterexample in counterexamples:
            key = tuple(tuple(sorted(vector.items())) for vector in counterexample.input_vectors)
            unique.setdefault(key, counterexample)
        return list(unique.values())

    def _absorb_counterexamples(self, counterexamples: Iterable[Counterexample],
                                result: ClosureResult) -> None:
        """Simulate counterexamples and fold the traces into every dataset.

        Every counterexample trace goes to every output's tree: a witness
        refuting one output's candidate is new data for all of them.  The
        traces are folded in counterexample order.
        """
        for counterexample in counterexamples:
            vectors = [dict(vector) for vector in counterexample.input_vectors]
            if not vectors:
                continue
            result.test_suite.append(vectors)
            trace = self._simulator.run_vectors(vectors)
            for context in self.contexts:
                context.tree.add_trace(trace)

    # ------------------------------------------------------------------
    # convenience accessors used by experiments
    # ------------------------------------------------------------------
    def context_for(self, label: str) -> OutputContext:
        for context in self.contexts:
            if context.label == label or context.output == label:
                return context
        raise KeyError(f"no mining context for output '{label}'")

    def final_tree(self, label: str):
        """The incremental decision tree of one output."""
        return self.context_for(label).tree
