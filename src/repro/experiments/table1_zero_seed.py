"""Table 1: the zero-initial-patterns limit study.

"The lack of any patterns would begin the procedure with a simple
assertion of the form 'output always 0' ... which the formal verification
would show false and provide a counterexample, which would be the first
functional pattern."

Paper reference (input-space coverage % at selected iterations):

==================  ====  ====  =====  =====  =====  =====  ====
Output              0     1     2      5      12     15     17
==================  ====  ====  =====  =====  =====  =====  ====
arbiter2.gnt0       0     50    75     100    100    100    100
arbiter4.gnt0       0     0     31.25  69.53  97.29  99.97  100
fetchstage.valid    0     0     25     100    100    100    100
==================  ====  ====  =====  =====  =====  =====  ====

Shape requirements: coverage starts at 0 with no seed, grows monotonically
and reaches 100 % within the iteration budget for every output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.config import GoldMineConfig
from repro.experiments.common import ExperimentResult, closure_for_design
from repro.experiments.iteration_coverage import input_space_by_iteration

#: Iteration checkpoints reported by the paper's Table 1.
PAPER_CHECKPOINTS = (0, 1, 2, 5, 12, 15, 17)

PAPER_SERIES = {
    "arbiter2.gnt0": [0.0, 50.0, 75.0, 100.0, 100.0, 100.0, 100.0],
    "arbiter4.gnt0": [0.0, 0.0, 31.25, 69.53, 97.29, 99.97, 100.0],
    "fetchstage.valid": [0.0, 0.0, 25.0, 100.0, 100.0, 100.0, 100.0],
}

DEFAULT_SUBJECTS: tuple[tuple[str, str], ...] = (
    ("arbiter2", "gnt0"),
    ("arbiter4", "gnt0"),
    ("fetch", "valid"),
)


@dataclass
class ZeroSeedSeries:
    design: str
    output: str
    coverage_percent: list[float] = field(default_factory=list)
    converged: bool = False
    iterations_to_closure: int | None = None
    test_suite_cycles: int = 0

    def at_checkpoints(self, checkpoints: Sequence[int] = PAPER_CHECKPOINTS) -> list[float]:
        """Sample the series at the paper's checkpoints (holding the last value)."""
        values = []
        for checkpoint in checkpoints:
            if checkpoint < len(self.coverage_percent):
                values.append(self.coverage_percent[checkpoint])
            elif self.coverage_percent:
                values.append(self.coverage_percent[-1])
            else:
                values.append(0.0)
        return values


@dataclass
class Table1Result:
    series: list[ZeroSeedSeries] = field(default_factory=list)

    def series_for(self, design: str, output: str) -> ZeroSeedSeries:
        for entry in self.series:
            if entry.design == design and entry.output == output:
                return entry
        raise KeyError((design, output))

    def as_experiment_result(self) -> ExperimentResult:
        result = ExperimentResult(
            name="table1",
            description="Zero-initial-pattern limit study (paper Table 1)",
        )
        for entry in self.series:
            result.add_series(f"{entry.design}.{entry.output}", entry.coverage_percent)
            if entry.iterations_to_closure is not None:
                result.notes.append(f"{entry.design}.{entry.output}: closed at "
                                    f"iteration {entry.iterations_to_closure}")
        return result

    def test_cycles(self) -> int:
        return sum(entry.test_suite_cycles for entry in self.series)


def run(subjects: Sequence[tuple[str, str]] = DEFAULT_SUBJECTS,
        max_iterations: int = 24,
        config: GoldMineConfig | None = None) -> Table1Result:
    """Run the zero-seed study: no initial patterns at all."""
    result = Table1Result()
    for design_name, output in subjects:
        closure, closure_result = closure_for_design(
            design_name, config, None, outputs=[output],
            max_iterations=max_iterations)
        label = closure.contexts[0].label
        series = ZeroSeedSeries(
            design=design_name,
            output=output,
            coverage_percent=input_space_by_iteration(closure_result, label),
            converged=closure_result.converged,
            test_suite_cycles=closure_result.total_test_cycles(),
        )
        for index, value in enumerate(series.coverage_percent):
            if value >= 100.0 - 1e-9:
                series.iterations_to_closure = index
                break
        result.series.append(series)
    return result
