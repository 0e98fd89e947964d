"""Figure 12: coverage of the arbiter design by counterexample iteration.

The paper's table (Section 6) reports, per counterexample iteration on the
two-port arbiter seeded with a four-row directed test:

===========  ==================  ====================
Iteration    Input-space cov. %  Expression cov. %
===========  ==================  ====================
0            0                   70
1            50                  80
2            93.75               90
3            100                 90
===========  ==================  ====================

The reproduction re-runs the refinement loop on the same RTL and directed
seed and reports the same two series.  The exact iteration count can differ
by one (it depends on how many counterexamples the model checker returns
per pass), but the shape requirements are: input-space coverage starts at
0, increases monotonically, and closes at 100 %; expression coverage never
decreases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import GoldMineConfig
from repro.designs import arbiter2_directed_test
from repro.experiments.common import ExperimentResult, closure_for_design
from repro.experiments.iteration_coverage import (
    input_space_by_iteration,
    metric_by_iteration,
)

#: The paper's reference series (for side-by-side reporting only).
PAPER_INPUT_SPACE = [0.0, 50.0, 93.75, 100.0]
PAPER_EXPRESSION = [70.0, 80.0, 90.0, 90.0]


@dataclass
class Fig12Result:
    """Structured result of the Figure 12 reproduction."""

    iterations: list[int] = field(default_factory=list)
    input_space: list[float] = field(default_factory=list)
    expression: list[float] = field(default_factory=list)
    converged: bool = False
    assertion_count: int = 0
    test_suite_cycles: int = 0

    def as_experiment_result(self) -> ExperimentResult:
        result = ExperimentResult(
            name="fig12",
            description="Arbiter coverage by counterexample iteration (paper Fig. 12)",
        )
        result.add_series("input_space_%", self.input_space)
        result.add_series("expression_%", self.expression)
        result.add_series("paper_input_space_%", PAPER_INPUT_SPACE)
        result.add_series("paper_expression_%", PAPER_EXPRESSION)
        result.notes.append(f"converged={self.converged} "
                            f"assertions={self.assertion_count}")
        return result

    def test_cycles(self) -> int:
        return self.test_suite_cycles


def run(window: int = 2, max_iterations: int = 16,
        config: GoldMineConfig | None = None) -> Fig12Result:
    """Reproduce Figure 12 on the Section 6 arbiter.

    ``config``'s simulation engine drives both the closure loop's
    counterexample replay and the coverage measurement; the result is
    identical, the batched engine is just faster.
    """
    _, closure_result = closure_for_design(
        "arbiter2", config, arbiter2_directed_test(), outputs=["gnt0"],
        window=window, max_iterations=max_iterations)
    return Fig12Result(
        iterations=list(range(len(closure_result.iterations))),
        input_space=input_space_by_iteration(closure_result, "gnt0"),
        expression=metric_by_iteration("arbiter2", closure_result, "expr", config),
        converged=closure_result.converged,
        assertion_count=len(closure_result.assertions_for("gnt0")),
        test_suite_cycles=closure_result.total_test_cycles(),
    )
