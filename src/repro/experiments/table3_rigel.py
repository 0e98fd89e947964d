"""Table 3: directed/random tests vs GoldMine tests on the Rigel modules.

The paper compares a 1.5-million-cycle directed test against the
GoldMine-generated suite (roughly 10-15 k cycles) on the wbstage, fetch and
decode modules, reporting line / condition / toggle / branch coverage.  The
directed suite leaves large condition and toggle gaps (and, on decode, line
and branch gaps) that the GoldMine suite closes or beats on every metric
with orders of magnitude fewer cycles.

Our substrate replaces the 1.5M-cycle commercial run with a long
pseudo-random baseline (the paper's directed suites are not available);
the cycle budget is scaled to the reduced design sizes.  Shape
requirements: the GoldMine suite uses far fewer cycles and matches or
exceeds the baseline on every reported metric for every module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.config import GoldMineConfig
from repro.experiments.common import (
    CoverageRow,
    ExperimentResult,
    closure_for_design,
    coverage_of_suite,
    metric_values,
)

DEFAULT_MODULES: tuple[str, ...] = ("wbstage", "fetch", "decode")
METRICS: tuple[str, ...] = ("line", "cond", "toggle", "branch")

PAPER_ROWS = {
    # module: (directed cycles, {metric: %}, goldmine cycles, {metric: %})
    "wbstage": (1_500_000, {"line": 100.0, "cond": 63.33, "toggle": 33.96, "branch": 100.0},
                9_182, {"line": 100.0, "cond": 95.53, "toggle": 96.75, "branch": 100.0}),
    "fetch": (1_500_000, {"line": 95.92, "cond": 87.5, "toggle": 55.22, "branch": 95.0},
              13_466, {"line": 100.0, "cond": 92.0, "toggle": 94.46, "branch": 100.0}),
    "decode": (1_500_000, {"line": 47.82, "cond": 55.04, "toggle": 81.89, "branch": 57.82},
               14_649, {"line": 99.87, "cond": 76.96, "toggle": 91.42, "branch": 88.17}),
}


@dataclass
class Table3Result:
    rows: list[CoverageRow] = field(default_factory=list)

    def row_for(self, design: str, method: str) -> CoverageRow:
        for row in self.rows:
            if row.design == design and row.method == method:
                return row
        raise KeyError((design, method))

    def as_experiment_result(self) -> ExperimentResult:
        result = ExperimentResult(
            name="table3",
            description="Directed/random vs GoldMine coverage on Rigel modules (Table 3)",
            rows=list(self.rows),
        )
        return result

    def test_cycles(self) -> int:
        return sum(row.cycles for row in self.rows)


def run(modules: Sequence[str] = DEFAULT_MODULES,
        baseline_cycles: int = 1_000, baseline_seed: int = 11,
        max_iterations: int = 16,
        config: GoldMineConfig | None = None) -> Table3Result:
    """Run the Rigel coverage comparison.

    The baseline is each module's directed test (repeated to the requested
    cycle budget), standing in for the paper's 1.5M-cycle directed suite.
    The GoldMine suite starts from one pass of the same directed test and
    adds every counterexample pattern from the refinement loop; both suites
    are replayed with a reset pulse at the start of every sequence.
    """
    from repro.designs.rigel import DIRECTED_TESTS

    result = Table3Result()
    for design_name in modules:
        directed = DIRECTED_TESTS[design_name]

        # Baseline: the directed suite repeated up to the cycle budget.
        baseline: list[list[dict[str, int]]] = []
        cycles = 0
        while cycles < baseline_cycles:
            baseline.append(directed())
            cycles += len(baseline[-1])
        baseline_report = coverage_of_suite(design_name, baseline, prepend_reset=True)
        result.rows.append(CoverageRow(
            design=design_name, method="directed", cycles=cycles,
            metrics=metric_values(baseline_report, METRICS)))

        # GoldMine: counterexample-refined suite seeded with one directed pass.
        _, closure_result = closure_for_design(design_name, config, directed(),
                                               max_iterations=max_iterations)
        goldmine_report = coverage_of_suite(design_name, closure_result.test_suite,
                                            prepend_reset=True)
        result.rows.append(CoverageRow(
            design=design_name, method="goldmine",
            cycles=closure_result.total_test_cycles(),
            metrics=metric_values(goldmine_report, METRICS)))
    return result
