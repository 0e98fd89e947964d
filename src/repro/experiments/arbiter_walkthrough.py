"""Section 6 worked example: the two-port arbiter walkthrough.

Reproduces the narrative of the paper's Section 6: starting from a
four-row directed test on the round-robin arbiter, the A-Miner produces
candidate assertions (A0, A1), formal verification refutes them, the
counterexamples refine the tree, and after a few iterations the surviving
assertion set covers the complete functionality of ``gnt0``.

The driver returns per-iteration snapshots (candidates checked, verdicts,
counterexample vectors, input-space coverage) plus the final tree dump so
the example script can print the same story the paper tells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.assertions.render import to_ltl, to_sva
from repro.core.config import GoldMineConfig
from repro.designs import arbiter2_directed_test
from repro.experiments.common import ExperimentResult, closure_for_design
from repro.experiments.iteration_coverage import metric_by_iteration


@dataclass
class IterationSnapshot:
    iteration: int
    checked: int
    new_true: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    counterexamples: int = 0
    input_space_percent: float = 0.0
    expression_percent: float = 0.0


@dataclass
class WalkthroughResult:
    snapshots: list[IterationSnapshot] = field(default_factory=list)
    final_assertions_ltl: list[str] = field(default_factory=list)
    final_assertions_sva: list[str] = field(default_factory=list)
    tree_dump: str = ""
    converged: bool = False
    test_suite_cycles: int = 0

    def as_experiment_result(self) -> ExperimentResult:
        result = ExperimentResult(
            name="walkthrough",
            description="Section 6 worked example: two-port arbiter refinement",
        )
        result.add_series("input_space_%",
                          [snap.input_space_percent for snap in self.snapshots])
        result.add_series("expression_%",
                          [snap.expression_percent for snap in self.snapshots])
        result.notes.append(f"converged={self.converged}")
        result.notes.extend(f"SVA: {sva}" for sva in self.final_assertions_sva)
        return result

    def test_cycles(self) -> int:
        return self.test_suite_cycles


def run(window: int = 2, max_iterations: int = 16,
        config: GoldMineConfig | None = None) -> WalkthroughResult:
    """Run the Section 6 walkthrough and collect its narrative data."""
    closure, closure_result = closure_for_design(
        "arbiter2", config, arbiter2_directed_test(), outputs=["gnt0"],
        window=window, max_iterations=max_iterations)
    expression = metric_by_iteration("arbiter2", closure_result, "expr")

    result = WalkthroughResult(converged=closure_result.converged,
                               test_suite_cycles=closure_result.total_test_cycles())
    for record, expr_pct in zip(closure_result.iterations, expression):
        result.snapshots.append(IterationSnapshot(
            iteration=record.iteration,
            checked=record.candidates_checked,
            new_true=[to_ltl(a) for a in record.new_true_assertions],
            failed=[to_ltl(a) for a in record.failed_assertions],
            counterexamples=record.counterexamples,
            input_space_percent=100.0 * record.input_space_coverage.get("gnt0", 0.0),
            expression_percent=expr_pct,
        ))

    for assertion in closure_result.assertions_for("gnt0"):
        result.final_assertions_ltl.append(to_ltl(assertion))
        result.final_assertions_sva.append(to_sva(assertion, clock="clk", reset="rst"))
    result.tree_dump = closure.final_tree("gnt0").dump()
    return result
