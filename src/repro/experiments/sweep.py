"""Ad-hoc coverage-closure sweep: one closure run per (design × seed).

The ``sweep`` experiment has no paper counterpart.  It runs the
refinement loop on any registered design from a pseudo-random seed of
``seed_cycles`` cycles (none at all when ``seed_cycles`` is 0) and
measures every standard coverage metric of the refined suite, for
scaling studies over the design registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import GoldMineConfig
from repro.core.results import ClosureResult
from repro.experiments.common import (
    CoverageRow,
    ExperimentResult,
    closure_for_design,
    coverage_of_suite,
)
from repro.sim.stimulus import RandomStimulus

METRICS: tuple[str, ...] = ("line", "branch", "cond", "expr", "toggle", "fsm")


@dataclass
class SweepResult:
    design: str
    seed: int
    closure: ClosureResult
    #: Percent per coverage metric the design has, plus ``input_space``.
    metrics: dict[str, float] = field(default_factory=dict)

    def as_experiment_result(self) -> ExperimentResult:
        result = ExperimentResult(
            name="sweep",
            description="Ad-hoc coverage-closure sweep over (design × seed)",
        )
        result.add_row(CoverageRow(design=self.design, method=f"seed{self.seed}",
                                   cycles=self.test_cycles(),
                                   metrics=dict(self.metrics)))
        result.notes.append(
            f"{self.design}/seed{self.seed}: converged={self.closure.converged} "
            f"iterations={self.closure.iteration_count} "
            f"assertions={len(self.closure.all_true_assertions)} "
            f"formal_checks={self.closure.formal_checks}")
        return result

    def test_cycles(self) -> int:
        return self.closure.total_test_cycles()


def run(design: str, seed: int = 0, seed_cycles: int = 25,
        max_iterations: int = 24,
        config: GoldMineConfig | None = None) -> SweepResult:
    """Close coverage on ``design`` from random seed ``seed`` and measure
    the refined suite."""
    stimulus = RandomStimulus(seed_cycles, seed=seed) if seed_cycles > 0 else None
    _, closure = closure_for_design(design, config, stimulus,
                                    max_iterations=max_iterations)
    report = coverage_of_suite(design, closure.test_suite)
    metrics = {name: report.get(name) or 0.0
               for name in METRICS if report.get(name) is not None}
    metrics["input_space"] = 100.0 * closure.input_space_coverage()
    return SweepResult(design=design, seed=seed, closure=closure, metrics=metrics)
