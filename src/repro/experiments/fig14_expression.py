"""Figure 14: expression coverage increase by counterexample iteration.

Paper reference values (expression coverage %):

=========  =========  ========  ========
Iteration  cex_small  arbiter2  arbiter4
=========  =========  ========  ========
0          66.67      70        39
1          83.33      80        82
2          83.33      90        87
3          83.33      90        88
=========  =========  ========  ========

The shape requirements checked by the harness: expression coverage never
decreases with iterations, and the final value is at least the seed value
for every design.  (Absolute numbers depend on the tool's expression-bin
definition; ours is documented in
:class:`repro.coverage.collectors.ExpressionCoverage`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.config import GoldMineConfig
from repro.experiments.common import ExperimentResult, closure_for_design, design_seed
from repro.experiments.iteration_coverage import metric_by_iteration

PAPER_EXPRESSION = {
    "cex_small": [66.67, 83.33, 83.33, 83.33],
    "arbiter2": [70.0, 80.0, 90.0, 90.0],
    "arbiter4": [39.0, 82.0, 87.0, 88.0],
}

DEFAULT_SUBJECTS: tuple[str, ...] = ("cex_small", "arbiter2", "arbiter4")


@dataclass
class ExpressionSeries:
    design: str
    expression_percent: list[float] = field(default_factory=list)
    converged: bool = False
    test_suite_cycles: int = 0


@dataclass
class Fig14Result:
    series: list[ExpressionSeries] = field(default_factory=list)

    def series_for(self, design: str) -> ExpressionSeries:
        for entry in self.series:
            if entry.design == design:
                return entry
        raise KeyError(design)

    def as_experiment_result(self) -> ExperimentResult:
        result = ExperimentResult(
            name="fig14",
            description="Expression coverage by iteration (paper Fig. 14)",
        )
        for entry in self.series:
            result.add_series(entry.design, entry.expression_percent)
        for design, values in PAPER_EXPRESSION.items():
            result.add_series(f"paper_{design}", values)
        return result

    def test_cycles(self) -> int:
        return sum(entry.test_suite_cycles for entry in self.series)


def run(subjects: Sequence[str] = DEFAULT_SUBJECTS, seed_cycles: int = 3,
        random_seed: int = 3, max_iterations: int = 20,
        config: GoldMineConfig | None = None) -> Fig14Result:
    """Run the Figure 14 study."""
    result = Fig14Result()
    for design_name in subjects:
        _, closure_result = closure_for_design(
            design_name, config, design_seed(design_name, seed_cycles, random_seed),
            max_iterations=max_iterations)
        result.series.append(ExpressionSeries(
            design=design_name,
            expression_percent=metric_by_iteration(design_name, closure_result,
                                                   "expr", config),
            converged=closure_result.converged,
            test_suite_cycles=closure_result.total_test_cycles(),
        ))
    return result
